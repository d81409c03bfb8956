import json
import shutil
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import semsurf.classifier as classifier
import semsurf.providers as providers
from semsurf.cli import EXIT_DATA, EXIT_OK, EXIT_PROVIDER, EXIT_USAGE, main
from semsurf.config import StageError, config_digest, parse_config
from semsurf.textmetrics import METRICS
from semsurf.transform import DEFAULT_PROMPTS, TransformationKind

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_config(path, dataset_path, extra=""):
    path.write_text(
        f"""
dataset = {dataset_path}
dataset_name = clitest
format = jsonl
k = 3
runs = 4
master_seed = 7
chat.endpoint = mock:chat
translate.endpoint = mock:translate
embed.endpoint = mock:embed
t2i.endpoint = mock:t2i
i2t.endpoint = mock:i2t
train.learning_rate = 5.0
{extra}
"""
    )


def small_dataset(tmp_path, language="pt", n_ad=4, n_c=8):
    rows = []
    for i in range(n_ad + n_c):
        group = "AD" if i < n_ad else "C"
        base = (
            "o menino viu o cachorro. ele ficou feliz."
            if language == "pt"
            else "the boy saw the dog. he was happy."
        )
        rows.append(
            {"id": f"s{i:02d}", "text": f"{base} item {i}.", "group": group, "language": language}
        )
    p = tmp_path / "data.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return p


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigParsing:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("a = 1\n# full comment\nb = two words  # trailing\n\n")
        assert parse_config(p) == {"a": "1", "b": "two words"}

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("just a line\n")
        with pytest.raises(StageError) as err:
            parse_config(p)
        assert err.value.exit_code == EXIT_USAGE

    def test_digest_stable(self):
        assert config_digest({"a": "1", "b": "2"}) == config_digest({"b": "2", "a": "1"})
        assert config_digest({"a": "1"}) != config_digest({"a": "2"})


class TestStageOrdering:
    def test_transform_before_ingest_fails(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        result = runner.invoke(
            main, ["transform", "--config", str(conf), "--run-dir", str(tmp_path / "run")]
        )
        assert result.exit_code == EXIT_DATA
        assert "ingest" in result.output

    def test_stats_before_similarity_fails(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        result = runner.invoke(
            main, ["stats", "--config", str(conf), "--run-dir", str(tmp_path / "run")]
        )
        assert result.exit_code == EXIT_DATA

    def test_missing_dataset_key(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        conf.write_text("chat.endpoint = mock:chat\n")
        result = runner.invoke(
            main, ["ingest", "--config", str(conf), "--run-dir", str(tmp_path / "run")]
        )
        assert result.exit_code == EXIT_USAGE

    def test_bad_dataset_exits_2(self, tmp_path, runner):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": "", "group": "AD", "language": "en"}\n')
        conf = tmp_path / "c.conf"
        write_config(conf, bad)
        result = runner.invoke(
            main, ["ingest", "--config", str(conf), "--run-dir", str(tmp_path / "run")]
        )
        assert result.exit_code == EXIT_DATA


class TestFullRun:
    def run_all(self, tmp_path, runner, name="run", language="pt", extra=""):
        conf = tmp_path / f"{name}.conf"
        write_config(conf, small_dataset(tmp_path, language=language), extra=extra)
        run_dir = tmp_path / name
        result = runner.invoke(
            main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
        )
        assert result.exit_code == EXIT_OK, result.output
        return run_dir

    def test_artifacts_present(self, tmp_path, runner):
        run_dir = self.run_all(tmp_path, runner)
        for name in (
            "dataset.jsonl",
            "dataset_stats.json",
            "similarity.json",
            "lexical.json",
            "classification.json",
            "stats.json",
            "run_manifest.json",
        ):
            assert (run_dir / name).exists(), name
        for table in ("dataset", "similarity", "classification", "backtranslation", "lexical", "pos"):
            for fmt in ("md", "csv", "json"):
                assert (run_dir / "reports" / f"table_{table}.{fmt}").exists(), (table, fmt)
        for metric in ("bleu", "chrf", "cosine"):
            assert (run_dir / "reports" / f"matrix_{metric}.csv").exists()

    def test_all_eight_kinds_and_id_preservation(self, tmp_path, runner):
        run_dir = self.run_all(tmp_path, runner, name="kinds")
        manifest = json.loads((run_dir / "transformed" / "manifest.json").read_text())
        assert sorted(manifest["kinds"]) == sorted(
            [
                "Original",
                "Translated",
                "ShortSummary",
                "MediumSummary",
                "LongSummary",
                "Storyboard",
                "ImageDescription",
                "BackTranslated",
            ]
        )
        source_ids = [
            json.loads(line)["id"]
            for line in (run_dir / "dataset.jsonl").read_text().splitlines()
        ]
        for kind in manifest["kinds"]:
            ids = [
                json.loads(line)["id"]
                for line in (run_dir / "transformed" / f"{kind}.jsonl").read_text().splitlines()
            ]
            assert ids == source_ids, kind

    def test_network_free(self, tmp_path, runner):
        run_dir = self.run_all(tmp_path, runner, name="offline")
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert manifest["network_calls"] == 0

    def test_reports_byte_identical_across_runs(self, tmp_path, runner):
        d1 = self.run_all(tmp_path, runner, name="r1")
        d2 = self.run_all(tmp_path, runner, name="r2")
        files = sorted(p.name for p in (d1 / "reports").iterdir())
        assert files == sorted(p.name for p in (d2 / "reports").iterdir())
        for name in files:
            assert (d1 / "reports" / name).read_bytes() == (d2 / "reports" / name).read_bytes(), name

    def test_english_dataset_skips_translation(self, tmp_path, runner):
        run_dir = self.run_all(tmp_path, runner, name="en", language="en")
        manifest = json.loads((run_dir / "transformed" / "manifest.json").read_text())
        assert "Translated" not in manifest["kinds"]
        sim = json.loads((run_dir / "similarity.json").read_text())
        assert sim["reference"] == "Original"

    def test_reference_is_translated_for_pt(self, tmp_path, runner):
        run_dir = self.run_all(tmp_path, runner, name="ref")
        sim = json.loads((run_dir / "similarity.json").read_text())
        assert sim["reference"] == "Translated"
        # similarity table restricted to the five derived text kinds
        assert sorted(sim["scores"]) == sorted(
            ["ShortSummary", "MediumSummary", "LongSummary", "Storyboard", "ImageDescription"]
        )

    def test_prompt_override_recorded(self, tmp_path, runner):
        run_dir = self.run_all(
            tmp_path, runner, name="prompt",
            extra="prompt.ShortSummary = Summarize in five words.",
        )
        manifest = json.loads((run_dir / "transformed" / "manifest.json").read_text())
        assert manifest["prompt_overrides"] == ["ShortSummary"]
        assert manifest["prompts"]["ShortSummary"] == "Summarize in five words."

    def test_classification_protocol_cv(self, tmp_path, runner):
        run_dir = self.run_all(tmp_path, runner, name="cv")
        cls = json.loads((run_dir / "classification.json").read_text())
        assert cls["protocol"] == "cv3"
        assert len(cls["seeds"]) == 4
        assert cls["seeds"] == [7 * 10007 + i for i in range(4)]
        for kind, runs in cls["runs"].items():
            assert len(runs) == 4, kind
            assert all(len(r["folds"]) == 3 for r in runs)

    def test_fixed_split_protocol(self, tmp_path, runner):
        ds = FIXTURES / "adress24.jsonl"
        conf = tmp_path / "fixed.conf"
        write_config(conf, ds)
        run_dir = tmp_path / "fixed"
        result = CliRunner().invoke(
            main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
        )
        assert result.exit_code == EXIT_OK, result.output
        cls = json.loads((run_dir / "classification.json").read_text())
        assert cls["protocol"] == "fixed_split"

    def test_stages_rerunnable_individually(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        run_dir = tmp_path / "steps"
        for stage in ("ingest", "transform", "similarity", "lexical", "classify", "stats", "report"):
            result = runner.invoke(
                main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
            )
            assert result.exit_code == EXIT_OK, (stage, result.output)

    def test_stages_read_the_kinds_of_the_last_transform(self, tmp_path, runner):
        run_dir = self.run_all(tmp_path, runner, name="stale")
        conf = tmp_path / "stale.conf"
        conf.write_text(conf.read_text() + "enabled = Original, Translated\n")
        for stage in ("transform", "similarity", "lexical", "classify"):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == EXIT_OK, (stage, result.output)
        # the other six kinds' files of the first run are still there
        assert len(list((run_dir / "transformed").glob("*.jsonl"))) == 8
        kinds = ["Original", "Translated"]
        assert json.loads((run_dir / "transformed" / "manifest.json").read_text())["kinds"] == kinds
        assert sorted(json.loads((run_dir / "classification.json").read_text())["runs"]) == kinds
        assert sorted(json.loads((run_dir / "lexical.json").read_text())) == kinds
        assert (run_dir / "reports" / "matrix_bleu.csv").read_text().splitlines()[0] == ",Original,Translated"

    @pytest.mark.parametrize(
        "n_c, extra, message",
        [
            (0, "", "training data must contain both classes"),
            (8, "train.learning_rate = 1e308", "non-finite training loss at epoch 2: inf"),
        ],
        ids=["one class", "diverging loss"],
    )
    def test_training_failure_exits_2(self, tmp_path, runner, n_c, extra, message):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path, n_ad=12, n_c=n_c), extra=extra)
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1].startswith("data error: ")
        assert message in result.output


def pt_fixture_config(path, extra=""):
    """run_mock_pt.conf with the dataset pinned to its absolute path, plus `extra` lines."""
    text = (FIXTURES / "run_mock_pt.conf").read_text().replace("../../fixtures/", f"{FIXTURES}/")
    path.write_text(text + extra)
    return path


@pytest.fixture(scope="module")
def pt_run(tmp_path_factory):
    """One `semsurf run` of the pt fixture: its run directory and the texts passed to ProviderClient.embed."""
    root = tmp_path_factory.mktemp("pt")
    embedded = []
    embed = providers.ProviderClient.embed

    def counting_embed(self, cfg, text):
        embedded.append(text)
        return embed(self, cfg, text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(providers.ProviderClient, "embed", counting_embed)
        conf = pt_fixture_config(root / "pt.conf")
        run_dir = root / "run"
        result = CliRunner().invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
    assert result.exit_code == EXIT_OK, result.output
    return run_dir, embedded


class TestEmbedOnce:
    def test_each_text_is_embedded_once(self, pt_run):
        _, embedded = pt_run
        assert len(embedded) == 8 * 40  # kinds x items

    def test_similarity_and_classify_need_no_cache(self, pt_run, tmp_path, runner):
        run_dir = tmp_path / "run"
        shutil.copytree(pt_run[0], run_dir)
        shutil.rmtree(run_dir / "cache")
        outputs = ["similarity.json", "classification.json", *(f"reports/matrix_{m}.csv" for m in METRICS)]
        for name in outputs:
            (run_dir / name).unlink()
        conf = pt_fixture_config(tmp_path / "pt.conf")
        for stage in ("similarity", "classify"):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == EXIT_OK, (stage, result.output)
        for name in outputs:
            assert (run_dir / name).read_bytes() == (pt_run[0] / name).read_bytes(), name
        assert not (run_dir / "cache").exists()

    @pytest.mark.parametrize("stage", ["similarity", "classify"])
    def test_changed_embed_config_needs_transform(self, pt_run, tmp_path, runner, stage):
        conf = pt_fixture_config(tmp_path / "pt.conf", "embed.model = mock-embed-2\n")
        result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(pt_run[0]), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert "run `semsurf transform`" in result.output


# each case: a line added to the config, a key whose line is dropped, the key the error names
CONFIG_ERRORS = {
    "unknown key": ("train.learning_rte = 5", None, "train.learning_rte"),
    "malformed int": ("k = five", None, "k"),
    "malformed float": ("train.l2 = abc", None, "train.l2"),
    "malformed bool": ("train.class_weighting = no", None, "train.class_weighting"),
    "bad mode": ("mode = lenent", None, "mode"),
    "max_workers below 1": ("max_workers = 0", None, "max_workers"),
    "lenient_threshold above 1": ("lenient_threshold = 1.5", None, "lenient_threshold"),
    "bad enabled kind": ("enabled = Original,ShortSumary", None, "enabled"),
    "bad prompt kind": ("prompt.ShortSumary = Be brief.", None, "prompt.ShortSumary"),
    "missing frequency table": ("frequency_table = no_such.tsv", None, "frequency_table"),
    "translate missing for pt": (None, "translate.endpoint", "translate.endpoint"),
    "t2i missing for ImageDescription": (None, "t2i.endpoint", "t2i.endpoint"),
    "i2t missing for ImageDescription": (None, "i2t.endpoint", "i2t.endpoint"),
}


class TestConfigErrors:
    @pytest.mark.parametrize("extra, drop, key", CONFIG_ERRORS.values(), ids=list(CONFIG_ERRORS))
    def test_exits_1_naming_key_before_any_stage_writes(self, tmp_path, runner, extra, drop, key):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra=extra or "")
        lines = [line for line in conf.read_text().splitlines() if not (drop and line.startswith(drop))]
        conf.write_text("\n".join(lines) + "\n")
        run_dir = tmp_path / "run"
        result = runner.invoke(
            main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
        )
        assert result.exit_code == EXIT_USAGE, result.output
        where = f"{conf}:{lines.index(extra) + 1}" if extra else str(conf)
        assert f"{where}: {key}: " in result.output
        assert not (run_dir / "dataset.jsonl").exists()

    def test_translate_not_required_for_english(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path, language="en"))
        conf.write_text(conf.read_text().replace("translate.endpoint = mock:translate\n", ""))
        result = runner.invoke(
            main, ["ingest", "--config", str(conf), "--run-dir", str(tmp_path / "run")]
        )
        assert result.exit_code == EXIT_OK, result.output

    def test_similarity_needs_the_reference_kind(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path, language="en"), extra="enabled = ShortSummary")
        result = runner.invoke(
            main, ["run", "--config", str(conf), "--run-dir", str(tmp_path / "run"), "--offline"]
        )
        assert result.exit_code == EXIT_USAGE, result.output
        assert "similarity needs the Original corpus" in result.output


def fail_short_summaries(monkeypatch, ids):
    """Make the mock chat fail the ShortSummary of each of small_dataset's `ids`,
    each failure after the one listed before it."""
    real = providers.mock_chat
    raised = [threading.Event() for _ in ids]

    def chat(system_prompt, user_text):
        if system_prompt == DEFAULT_PROMPTS[TransformationKind.SHORT_SUMMARY]:
            for n, item_id in enumerate(ids):
                if user_text.endswith(f" item {int(item_id[1:])}."):
                    assert n == 0 or raised[n - 1].wait(timeout=10)
                    raised[n].set()
                    raise RuntimeError(f"no summary for {item_id}")
        return real(system_prompt, user_text)

    monkeypatch.setattr(providers, "mock_chat", chat)


class TestLenientRun:
    def test_every_artifact_keeps_the_ids_that_did_not_fail(self, tmp_path, runner, monkeypatch):
        fail_short_summaries(monkeypatch, ["s01", "s06"])
        fold_ids = []
        evaluate = classifier._evaluate

        def recording_evaluate(fold, train_ids, test_ids, *args):
            fold_ids.append(sorted(train_ids + test_ids))
            return evaluate(fold, train_ids, test_ids, *args)

        monkeypatch.setattr(classifier, "_evaluate", recording_evaluate)
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra="mode = lenient")
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_OK, result.output

        manifest = json.loads((run_dir / "transformed" / "manifest.json").read_text())
        assert {kind: [i for i, _ in f] for kind, f in manifest["failures"].items()} == {
            "ShortSummary": ["s01", "s06"]
        }
        kept = [f"s{i:02d}" for i in range(12) if i not in (1, 6)]
        assert len(manifest["kinds"]) == 8
        for kind in manifest["kinds"]:
            lines = (run_dir / "transformed" / f"{kind}.jsonl").read_text().splitlines()
            assert [json.loads(line)["id"] for line in lines] == kept, kind
        cls = json.loads((run_dir / "classification.json").read_text())
        assert len(fold_ids) == 8 * 4 * 3  # kinds x seeds x folds
        assert all(ids == kept for ids in fold_ids)
        assert sorted(cls["runs"]) == sorted(manifest["kinds"])

    def test_failures_are_listed_in_source_order(self, tmp_path, runner, monkeypatch):
        fail_short_summaries(monkeypatch, ["s06", "s01"])  # s06 fails first
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra="mode = lenient\nmax_workers = 4")
        run_dir = tmp_path / "run"
        for stage in ("ingest", "transform"):
            result = runner.invoke(
                main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
            )
            assert result.exit_code == EXIT_OK, result.output
        manifest = json.loads((run_dir / "transformed" / "manifest.json").read_text())
        assert [i for i, _ in manifest["failures"]["ShortSummary"]] == ["s01", "s06"]

    def test_offline_cache_miss_aborts_with_its_cause(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra="mode = lenient")
        conf.write_text(conf.read_text().replace("mock:chat", "http://localhost:9/v1/chat"))
        run_dir = tmp_path / "run"
        for stage, code in (("ingest", EXIT_OK), ("transform", EXIT_PROVIDER)):
            result = runner.invoke(
                main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
            )
            assert result.exit_code == code, result.output
        assert "ShortSummary s00: cache miss" in result.output
        assert "items completed" not in result.output


def test_dataset_name_defaults_to_file_stem(tmp_path, runner):
    conf = tmp_path / "c.conf"
    write_config(conf, FIXTURES / "dogstory40.jsonl")
    conf.write_text(conf.read_text().replace("dataset_name = clitest\n", ""))
    run_dir = tmp_path / "run"
    for stage in ("ingest", "report"):
        result = runner.invoke(
            main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
        )
        assert result.exit_code == EXIT_OK, (stage, result.output)
    rows = (run_dir / "reports" / "table_dataset.md").read_text().splitlines()
    assert rows[4].startswith("| dogstory40 | "), rows
