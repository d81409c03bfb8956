"""Run configuration: a flat `key = value` file checked against one schema.

SCHEMA maps every accepted key to a parser and a default. It is the one
place each default is written; library defaults are read from the
dataclasses that own them. A file is parsed once, before any stage runs,
and every error names the key and, for a key present in the file, its line.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .classifier import TrainConfig
from .providers import ProviderConfig
from .transform import KIND_ORDER, PIVOT_LANGUAGE, PipelineConfig, PromptSet, TransformationKind

# config role -> provider kind
ROLES = {"chat": "chat", "translate": "translate", "embed": "embed", "t2i": "text_to_image", "i2t": "image_to_text"}


class StageError(RuntimeError):
    """Ends a CLI command with `exit_code`."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


class ConfigError(StageError):
    """The config does not match SCHEMA: a usage error, exit code 1."""

    def __init__(self, message: str):
        super().__init__(message, 1)


REQUIRED = object()


@dataclass(frozen=True)
class Key:
    parse: Callable[[str], object]
    # None: unset; REQUIRED: the file must set it; a callable: computed from the keys before it
    default: object = None
    shown: str | None = None  # the README's wording for a default that is not a literal


def _number(convert, what: str, low=None, high=None):
    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise ValueError(f"expected {what}") from None
        if low is not None and not value >= low:  # `not >=` also rejects nan
            raise ValueError(f"expected {what} >= {low}")
        if high is not None and not value <= high:
            raise ValueError(f"expected {what} <= {high}")
        return value

    return parse


INT = _number(int, "an integer")
FLOAT = _number(float, "a number")


def _choice(*allowed: str):
    def parse(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected {'|'.join(allowed)}")
        return raw

    return parse


def _bool(raw: str) -> bool:
    return _choice("true", "false")(raw) == "true"


def _kinds(raw: str) -> frozenset[TransformationKind]:
    return frozenset(TransformationKind(name.strip()) for name in raw.split(",") if name.strip())


def _role_keys(role: str) -> dict[str, Key]:
    """The keys of one provider role, in the order of ProviderConfig's fields after `kind`."""
    keys = {
        "endpoint": Key(str, shown="—"),
        "model": Key(str, f"mock-{role}"),
        "temperature": Key(_number(float, "a number", 0), ProviderConfig.temperature),
        "max_tokens": Key(INT),
        "seed": Key(INT, ProviderConfig.seed),
        "credential_env": Key(str),
        "dimension": Key(INT),
    }
    return {f"{role}.{name}": spec for name, spec in keys.items()}


# train.<key> -> (TrainConfig field, parser)
TRAIN_KEYS = {
    "max_epochs": ("max_epochs", INT),
    "patience": ("early_stop_patience", INT),
    "learning_rate": ("learning_rate", FLOAT),
    "l2": ("l2", FLOAT),
    "validation_fraction": ("validation_fraction", FLOAT),
    "class_weighting": ("class_weighting", _bool),
}

SCHEMA: dict[str, Key] = {
    "dataset": Key(str, REQUIRED, "— (required)"),
    "dataset_name": Key(str, lambda values: Path(values["dataset"]).stem, "file stem"),
    "format": Key(_choice("jsonl", "csv"), shown="by extension"),
    "enabled": Key(_kinds, frozenset(KIND_ORDER), "all kinds"),
    "k": Key(_number(int, "an integer", 2), 5),
    "runs": Key(_number(int, "an integer", 1), 10),
    "master_seed": Key(INT, 42),
    "mode": Key(_choice("strict", "lenient"), "strict"),
    "lenient_threshold": Key(_number(float, "a number", 0, 1), PipelineConfig.lenient_threshold),
    "max_workers": Key(_number(int, "an integer", 1), PipelineConfig.max_workers),
    "cache_root": Key(str, "cache"),
    **{f"prompt.{kind.value}": Key(str, shown="shipped default") for kind in KIND_ORDER},
    "frequency_table": Key(str, shown="shipped table"),
    "zipf_oov_floor": Key(FLOAT, 0.0),
    "pos_lexicon": Key(str, shown="shipped lexicon"),
    **{key: spec for role in ROLES for key, spec in _role_keys(role).items()},
    **{f"train.{key}": Key(parse, getattr(TrainConfig, field)) for key, (field, parse) in TRAIN_KEYS.items()},
}


def _entries(path: Path):
    """(line number, key, value) per setting; '#' starts a comment."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        yield lineno, key.strip(), value.strip()


def parse_config(path: Path) -> dict[str, str]:
    """The settings of a flat key = value file, unchecked; a repeated key keeps its last value."""
    return {key: value for _, key, value in _entries(path)}


def config_digest(config: dict[str, str]) -> str:
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Config:
    """A config file checked against SCHEMA.

    `raw` holds the settings as written (digested, and copied into
    run_manifest.json); `self[key]` is the parsed value or the default of
    any schema key.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.raw = parse_config(self.path)
        self.lines = {key: lineno for lineno, key, _ in _entries(self.path)}
        for key in self.raw:
            if key not in SCHEMA:
                raise self.error(key, "unknown key")
        self.values: dict[str, object] = {}
        for key, spec in SCHEMA.items():
            if key in self.raw:
                try:
                    self.values[key] = spec.parse(self.raw[key])
                except ValueError as exc:
                    raise self.error(key, f"{self.raw[key]!r}: {exc}") from None
            elif spec.default is REQUIRED:
                raise self.error(key, "required key is missing")
            else:
                default = spec.default
                self.values[key] = default(self.values) if callable(default) else default

        self.providers: dict[str, ProviderConfig] = {}
        for role, kind in ROLES.items():
            if self[f"{role}.endpoint"] is not None:
                try:
                    self.providers[role] = ProviderConfig(kind, *(self[key] for key in _role_keys(role)))
                except ValueError as exc:
                    raise self.error(f"{role}.endpoint", str(exc)) from None
        self.require("chat", "transform needs it")
        self.require("embed", "transform embeds every corpus")
        if TransformationKind.IMAGE_DESCRIPTION in self["enabled"]:
            self.require("t2i", "ImageDescription is enabled")
            self.require("i2t", "ImageDescription is enabled")
        try:
            self.train = TrainConfig(**{field: self[f"train.{key}"] for key, (field, _) in TRAIN_KEYS.items()})
        except ValueError as exc:
            raise ConfigError(f"{self.path}: train: {exc}") from None

    def __getitem__(self, key: str):
        return self.values[key]

    def error(self, key: str, message: str) -> ConfigError:
        where = f"{self.path}:{self.lines[key]}" if key in self.lines else str(self.path)
        return ConfigError(f"{where}: {key}: {message}")

    def require(self, role: str, reason: str) -> None:
        if role not in self.providers:
            raise self.error(f"{role}.endpoint", f"required key is missing ({reason})")

    def check_language(self, language: str) -> None:
        """A corpus not in the pivot language is translated, so it needs a translate provider."""
        if language != PIVOT_LANGUAGE:
            self.require("translate", f"the corpus language is {language!r}")

    def pipeline(self, language: str) -> PipelineConfig:
        self.check_language(language)
        prompts = PromptSet()
        for kind in KIND_ORDER:
            if self[f"prompt.{kind.value}"] is not None:
                prompts.override(kind, self[f"prompt.{kind.value}"])
        return PipelineConfig(
            chat=self.providers["chat"],
            translate=self.providers.get("translate"),
            text_to_image=self.providers.get("t2i"),
            image_to_text=self.providers.get("i2t"),
            prompts=prompts,
            enabled=set(self["enabled"]),
            max_workers=self["max_workers"],
            strict=self["mode"] == "strict",
            lenient_threshold=self["lenient_threshold"],
        )
