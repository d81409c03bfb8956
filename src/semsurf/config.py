"""Run configuration: a flat `key = value` file checked against one schema.

SCHEMA maps every accepted key to a parser and a default. It is the one
place each default is written; library defaults are read from the
dataclasses and modules that own them. A file is parsed once, before any stage runs,
and every error names the key and, for a key present in the file, its line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .providers import DEFAULT_MAX_WORKERS, ProviderConfig, cache_key_for
from .transform import DEFAULT_PROMPTS, KIND_ORDER, PIVOT_LANGUAGE, STEPS, PipelineConfig, TransformationKind

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


def _number(convert, what: str, low=None, high=None, above=None, below=None):
    """A parser of `convert` numbers, finite for floats, in [low, high], above `above` and below `below`, where each
    is set."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise ValueError(f"expected {what}") from None
        if convert is float and not math.isfinite(value):
            raise ValueError("expected a finite number")
        if low is not None and value < low:
            raise ValueError(f"expected {what} >= {low}")
        if high is not None and value > high:
            raise ValueError(f"expected {what} <= {high}")
        if above is not None and value <= above:
            raise ValueError(f"expected {what} > {above}")
        if below is not None and value >= below:
            raise ValueError(f"expected {what} < {below}")
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
    """<role>.<ProviderConfig field> -> Key for one provider role.

    Every role has an endpoint, a model and a credential. Only chat requests
    carry sampling settings, and only embed responses are checked against a
    declared dimension.
    """
    keys = {
        "endpoint": Key(str, shown="—"),
        "model": Key(str, f"mock-{role}"),
        "credential_env": Key(str),
    }
    if role == "chat":
        keys["temperature"] = Key(_number(float, "a number", 0), ProviderConfig.temperature)
        keys["max_tokens"] = Key(_number(int, "an integer", 1))
        keys["seed"] = Key(INT, ProviderConfig.seed)
    if role == "embed":
        keys["dimension"] = Key(_number(int, "an integer", 1))
    return {f"{role}.{name}": spec for name, spec in keys.items()}


@dataclass(frozen=True)
class TrainConfig:
    """The classifier's training settings; config.py holds it so that parsing a config loads no numpy."""

    max_epochs: int = 10
    patience: int = 3
    learning_rate: float = 0.1
    l2: float = 1e-4
    validation_fraction: float = 0.2
    class_weighting: bool = True

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (0.0 < self.validation_fraction < 0.5):
            raise ValueError("validation_fraction must be in (0, 0.5)")


# train.<TrainConfig field> -> parser; each checks its key's bounds, TrainConfig's own included, so that an error names
# the key and its line. A patience below 1 acts as 1, a learning rate of 0 leaves every head at zero, and a negative
# one, or a negative l2, makes descent grow the loss or the weights
TRAIN_KEYS = {
    "max_epochs": _number(int, "an integer", 1),
    "patience": _number(int, "an integer", 1),
    "learning_rate": _number(float, "a number", above=0),
    "l2": _number(float, "a number", 0),
    "validation_fraction": _number(float, "a number", above=0, below=0.5),
    "class_weighting": _bool,
}

SCHEMA: dict[str, Key] = {
    "dataset": Key(str, REQUIRED, "— (required)"),
    "dataset_name": Key(str, lambda values: Path(values["dataset"]).stem, "file stem"),
    "format": Key(_choice("jsonl", "csv"), shown="by extension"),
    "enabled": Key(_kinds, frozenset(KIND_ORDER), "all kinds"),
    "k": Key(_number(int, "an integer", 2), 5),
    "runs": Key(_number(int, "an integer", 1), 10),
    "master_seed": Key(_number(int, "an integer", 0), 42),
    "mode": Key(_choice("strict", "lenient"), "strict"),
    "lenient_threshold": Key(_number(float, "a number", 0, 1), PipelineConfig.lenient_threshold),
    "max_workers": Key(_number(int, "an integer", 1), DEFAULT_MAX_WORKERS),
    "cache_root": Key(str, "cache"),
    **{f"prompt.{kind.value}": Key(str, prompt, "shipped default") for kind, prompt in DEFAULT_PROMPTS.items()},
    "frequency_table": Key(str, shown="shipped table"),
    "zipf_oov_floor": Key(FLOAT, 0.0),
    "pos_lexicon": Key(str, shown="shipped lexicon"),
    **{key: spec for role in ROLES for key, spec in _role_keys(role).items()},
    **{f"train.{field}": Key(parse, getattr(TrainConfig, field)) for field, parse in TRAIN_KEYS.items()},
}


def _entries(path: Path):
    """(line number, key, value) per setting; '#' starts a comment anywhere on a line, values included."""
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


def config_digest(config: dict[str, str]) -> str:
    """The sha256 hex digest of the settings as sorted JSON, computed as a cache key is."""
    return cache_key_for(json.dumps(config, sort_keys=True))


class Config:
    """A config file checked against SCHEMA.

    `raw` holds the settings as written (digested, and copied into
    run_manifest.json); `self[key]` is the parsed value or the default of
    any schema key.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        entries = list(_entries(self.path))  # one read gives the settings and their lines
        self.raw = {key: value for _, key, value in entries}  # a repeated key keeps its last value
        self.lines = {key: lineno for lineno, key, _ in entries}
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
                    fields = {key.split(".")[1]: self[key] for key in _role_keys(role)}
                    self.providers[role] = ProviderConfig(kind=kind, **fields)
                except ValueError as exc:
                    raise self.error(f"{role}.endpoint", str(exc)) from None
        if TransformationKind.ORIGINAL not in self["enabled"]:
            raise self.error("enabled", "must include Original, the classification baseline")
        self.require("chat", "transform needs it")
        self.require("embed", "transform embeds every corpus")
        if TransformationKind.IMAGE_DESCRIPTION in self["enabled"]:
            self.require("t2i", "ImageDescription is enabled")
            self.require("i2t", "ImageDescription is enabled")
        self.train = TrainConfig(**{field: self[f"train.{field}"] for field in TRAIN_KEYS})

    def __getitem__(self, key: str):
        return self.values[key]

    def error(self, key: str, message: str) -> ConfigError:
        where = f"{self.path}:{self.lines[key]}" if key in self.lines else str(self.path)
        return ConfigError(f"{where}: {key}: {message}")

    def require(self, role: str, reason: str) -> None:
        if role not in self.providers:
            raise self.error(f"{role}.endpoint", f"required key is missing ({reason})")

    def check_language(self, language: str) -> None:
        """A corpus not in the pivot language is translated, so it needs a translate provider, and the kinds made
        from its English text need Translated, the reference that similarity scores them against."""
        if language != PIVOT_LANGUAGE:
            self.require("translate", f"the corpus language is {language!r}")
            english = {TransformationKind.TRANSLATED}
            for step in STEPS:  # in run order, so a step's source is classed before it
                if step.source in english:
                    english.add(step.kind)
            made = [kind.value for kind in KIND_ORDER if kind in english and kind in self["enabled"]]
            if made and TransformationKind.TRANSLATED not in self["enabled"]:
                raise self.error("enabled", (
                    f"lists {', '.join(made)} but not Translated, which a corpus in {language!r} needs as the"
                    " reference of the kinds made from its English text"
                ))

    def pipeline(self, language: str) -> PipelineConfig:
        self.check_language(language)
        return PipelineConfig(
            chat=self.providers["chat"],
            translate=self.providers.get("translate"),
            text_to_image=self.providers.get("t2i"),
            image_to_text=self.providers.get("i2t"),
            prompts={kind: self[f"prompt.{kind.value}"] for kind in DEFAULT_PROMPTS},
            enabled=set(self["enabled"]),
            strict=self["mode"] == "strict",
            lenient_threshold=self["lenient_threshold"],
        )
