import re
from pathlib import Path

import pytest

from semsurf.classifier import TrainConfig
from semsurf.config import ROLES, SCHEMA, Config, ConfigError
from semsurf.providers import DEFAULT_MAX_WORKERS, ProviderConfig
from semsurf.transform import DEFAULT_PROMPTS, KIND_ORDER, PipelineConfig, TransformationKind

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """\
dataset = data/corpus.jsonl
chat.endpoint = mock:chat
embed.endpoint = mock:embed
t2i.endpoint = mock:t2i
i2t.endpoint = mock:i2t
"""


def load(tmp_path, text):
    path = tmp_path / "c.conf"
    path.write_text(text)
    return Config(path)


def readme_config_rows() -> dict[str, str]:
    """Key -> Default cell of the README's config-key table, placeholders expanded."""
    section = (ROOT / "README.md").read_text().split("### Config keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key, default = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:3]]
        key = key.strip("`")
        if key.startswith("<role>."):
            rows.update({key.replace("<role>", r): default.replace("<role>", r) for r in ROLES})
        elif key == "prompt.<Kind>":
            rows.update({f"prompt.{kind.value}": default for kind in DEFAULT_PROMPTS})
        else:
            rows[key] = default
    return rows


def test_readme_table_matches_schema():
    rows = readme_config_rows()
    assert set(rows) == set(SCHEMA)
    for key, shown in rows.items():
        spec = SCHEMA[key]
        if spec.shown is not None or spec.default is None:
            assert shown == (spec.shown or "unset"), key
        else:
            assert spec.parse(shown.strip("`")) == spec.default, key


def test_defaults_come_from_the_owning_dataclasses(tmp_path):
    cfg = load(tmp_path, MINIMAL)
    assert cfg.train == TrainConfig()
    pipeline = cfg.pipeline("en")
    assert cfg["max_workers"] == DEFAULT_MAX_WORKERS
    assert pipeline.lenient_threshold == PipelineConfig.lenient_threshold
    assert pipeline.strict and pipeline.enabled == set(KIND_ORDER)
    assert pipeline.prompts == DEFAULT_PROMPTS
    assert cfg["dataset_name"] == "corpus"
    assert cfg.providers["chat"].model == "mock-chat"


def test_values_are_parsed(tmp_path):
    cfg = load(
        tmp_path,
        MINIMAL
        + "mode = lenient\nk = 3\ntrain.class_weighting = false\ntrain.l2 = 1e-3\n"
        + "enabled = Original, ShortSummary\nprompt.ShortSummary = Be brief.\n",
    )
    assert cfg["k"] == 3
    assert cfg.train.class_weighting is False and cfg.train.l2 == 1e-3
    pipeline = cfg.pipeline("en")
    assert not pipeline.strict
    assert pipeline.enabled == {TransformationKind.ORIGINAL, TransformationKind.SHORT_SUMMARY}
    assert pipeline.prompts == {**DEFAULT_PROMPTS, TransformationKind.SHORT_SUMMARY: "Be brief."}
    assert DEFAULT_PROMPTS[TransformationKind.SHORT_SUMMARY] != "Be brief."  # the shipped defaults stay as they are
    assert cfg.raw["train.l2"] == "1e-3"  # the text as written, for the digest


def test_role_keys_fill_provider_config(tmp_path):
    cfg = load(
        tmp_path,
        MINIMAL
        + "chat.model = llama\nchat.temperature = 0.5\nchat.max_tokens = 64\nchat.seed = 3\n"
        + "chat.credential_env = CHAT_KEY\nembed.model = e5\nembed.credential_env = EMBED_KEY\nembed.dimension = 8\n",
    )
    assert cfg.providers["chat"] == ProviderConfig(
        kind="chat", endpoint="mock:chat", model="llama", temperature=0.5, max_tokens=64,
        seed=3, credential_env="CHAT_KEY",
    )
    assert cfg.providers["embed"] == ProviderConfig(
        kind="embed", endpoint="mock:embed", model="e5", credential_env="EMBED_KEY", dimension=8,
    )
    # the roles that no key of theirs can tune keep ProviderConfig's defaults
    assert cfg.providers["t2i"] == ProviderConfig(kind="text_to_image", endpoint="mock:t2i", model="mock-t2i")
    assert "translate" not in cfg.providers


@pytest.mark.parametrize(
    "line, message",
    [
        ("train.learning_rte = 5", "c.conf:6: train.learning_rte: unknown key"),
        ("k = 1", "c.conf:6: k: '1': expected an integer >= 2"),
        ("chat.temperature = -1", "c.conf:6: chat.temperature: '-1': expected a number >= 0"),
        ("train.class_weighting = True", "c.conf:6: train.class_weighting: 'True': expected true|false"),
        ("train.validation_fraction = 0.7", "c.conf:6: train.validation_fraction: '0.7': expected a number < 0.5"),
        ("train.validation_fraction = 0", "c.conf:6: train.validation_fraction: '0': expected a number > 0"),
        ("train.max_epochs = 0", "c.conf:6: train.max_epochs: '0': expected an integer >= 1"),
    ],
)
def test_error_names_key_and_line(tmp_path, line, message):
    with pytest.raises(ConfigError) as err:
        load(tmp_path, MINIMAL + line + "\n")
    assert str(err.value).endswith(message)
    assert err.value.exit_code == 1


def test_dataset_is_required(tmp_path):
    with pytest.raises(ConfigError, match="dataset: required key is missing"):
        load(tmp_path, MINIMAL.replace("dataset = data/corpus.jsonl\n", ""))


def test_translate_required_only_for_other_languages(tmp_path):
    cfg = load(tmp_path, MINIMAL)
    assert cfg.pipeline("en").translate is None
    with pytest.raises(ConfigError, match="translate.endpoint: required key is missing"):
        cfg.pipeline("pt")
