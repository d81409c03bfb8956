import csv
import errno
import functools
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import sqlite3
import subprocess
import sys
import threading
import time
import weakref
from contextlib import closing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import semsurf.classifier as classifier
import semsurf.cli as cli
import semsurf.corpus as corpus
import semsurf.providers as providers
import semsurf.report as report
import semsurf.stattests as stattests
from semsurf.cli import EXIT_DATA, EXIT_OK, EXIT_PROVIDER, EXIT_USAGE, STAGES, main
from semsurf.config import Config, StageError, config_digest
from semsurf.textmetrics import METRICS
from semsurf.transform import DEFAULT_PROMPTS, KIND_ORDER, TransformationKind, TransformedCorpus
from tests.test_providers import write_database

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_139 = Path(__file__).resolve().parent / "golden_dogstory139"


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


def small_dataset(tmp_path, language="pt", n_ad=4, n_c=8, split=None):
    """`n_ad` AD then `n_c` C transcripts; `split` maps a group to the split tag of its
    transcripts, or to a list of tags, one per transcript of the group."""
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
        if split:
            tags = split[group]
            rows[-1]["split"] = tags if isinstance(tags, str) else tags[i if i < n_ad else i - n_ad]
    p = tmp_path / "data.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return p


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigParsing:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text(
            "dataset = my data.jsonl  # trailing\n# full comment\n\nchat.endpoint = mock:chat\n"
            "embed.endpoint = mock:embed\nenabled = Original\n"
        )
        assert Config(p).raw == {
            "dataset": "my data.jsonl", "chat.endpoint": "mock:chat", "embed.endpoint": "mock:embed",
            "enabled": "Original",
        }

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("dataset = d.jsonl\njust a line\n")
        with pytest.raises(StageError) as err:
            Config(p)
        assert err.value.exit_code == EXIT_USAGE
        assert str(err.value) == f"{p}:2: expected 'key = value'"

    def test_digest_stable(self):
        assert config_digest({"a": "1", "b": "2"}) == config_digest({"b": "2", "a": "1"})
        assert config_digest({"a": "1"}) != config_digest({"a": "2"})

    def test_digest_is_pinned(self):
        """The sha256 hex digest of the settings as sorted, ASCII-escaped JSON, as run_manifest.json records it."""
        raw = {"k": "5", "dataset": "data/corpus.jsonl", "prompt.ShortSummary": "Resuma em português."}
        assert config_digest(raw) == "6b8880339ebba471ef001e17b03a96fef1b8023bc0f4d38e7a3b87c50475a646"


class TestStageOrdering:
    def test_transform_before_ingest_fails(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        result = runner.invoke(
            main, ["transform", "--config", str(conf), "--run-dir", str(tmp_path / "run")]
        )
        assert result.exit_code == EXIT_DATA
        assert "ingest" in result.output

    def test_stats_before_similarity_fails(self, pt_run, tmp_path, runner):
        """`report` computes the statistics from similarity.json too, so it needs it beside classify's and
        lexical's artifacts, and writes neither stats.json nor a table without it."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        copy_report_inputs(pt_run[0], run_dir, skip={"similarity.json"})
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["report", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == ["error: missing artifact similarity.json; run `semsurf similarity` first"]
        assert not (run_dir / "stats.json").exists() and not (run_dir / "reports").exists()

    def test_report_before_similarity_fails(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        run_dir = tmp_path / "run"
        for stage, code in (("ingest", EXIT_OK), ("report", EXIT_DATA)):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir)])
            assert result.exit_code == code, result.output
        assert "missing artifact similarity.json; run `semsurf similarity` first" in result.output
        assert not (run_dir / "reports").exists() and not (run_dir / "stats.json").exists()

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

    def test_partially_split_dataset_exits_2(self, tmp_path, runner):
        rows = [json.loads(line) for line in (FIXTURES / "adress24.jsonl").read_text().splitlines()]
        del rows[5]["split"]
        data = tmp_path / "partial.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in rows))
        conf = tmp_path / "c.conf"
        write_config(conf, data)
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["ingest", "--config", str(conf), "--run-dir", str(run_dir)])
        assert result.exit_code == EXIT_DATA, result.output
        assert f"these do not: ['{rows[5]['id']}']" in result.output
        assert not (run_dir / "dataset.jsonl").exists()


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
        assert sorted(manifest) == ["dataset_name", "embed", "failures", "kinds", "prompt_overrides", "prompts"]

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
        for stage, _ in STAGES:
            result = runner.invoke(
                main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
            )
            assert result.exit_code == EXIT_OK, (stage, result.output)
        # the stages one by one write what `run` writes, byte for byte
        whole = self.run_all(tmp_path, runner, name="whole")

        def artifacts(d):
            paths = [p for p in d.rglob("*") if p.is_file() and p.name != "run_manifest.json"]
            return sorted(p.relative_to(d).as_posix() for p in paths if p.relative_to(d).parts[0] != "cache")

        names = artifacts(whole)
        assert artifacts(run_dir) == names
        for expected in ("dataset.jsonl", "dataset_stats.json", "transformed/manifest.json", "transformed/Original.npy",
                         "similarity.json", "lexical.json", "classification.json", "stats.json",
                         "reports/table_classification.csv", "reports/matrix_chrf.csv"):
            assert expected in names
        for name in names:
            assert (run_dir / name).read_bytes() == (whole / name).read_bytes(), name

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
        "n_c, split, extra, message, stacked",
        [
            (0, None, "", "training data must contain both classes", True),
            # every kind diverges at once, and the first in the manifest's order is named, on either path
            *(
                (8, None, "train.learning_rate = 1e308",
                 f"BackTranslated: seed {7 * 10007} fold 0: non-finite training loss at epoch 2: inf", stacked)
                for stacked in (True, False)
            ),
            # only AD transcripts in the train split
            (
                8, {"AD": ["train"] * 8 + ["test"] * 4, "C": "test"}, "",
                f"seed {7 * 10007} fold 0: training data must contain both classes", True,
            ),
            # only C transcripts in the test split: no head can be scored, so none is trained
            (8, {"AD": "train", "C": "test"}, "", "fixed split test set has no AD transcripts", True),
        ],
        ids=["one class", "diverging loss", "diverging loss one kind at a time", "fixed split one class",
             "fixed split one-class test set"],
    )
    def test_training_failure_exits_2(self, tmp_path, runner, monkeypatch, n_c, split, extra, message, stacked):
        if not stacked:
            monkeypatch.setattr(classifier, "STACK_BYTES", 0)
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path, n_ad=12, n_c=n_c, split=split), extra=extra)
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1].startswith("data error: ")
        assert message in result.output


def pt_fixture_config(path, extra="", fixture="run_mock_pt.conf"):
    """The `fixture` config, by default run_mock_pt.conf, with the dataset pinned to its absolute path, plus `extra`
    lines."""
    text = (FIXTURES / fixture).read_text().replace("../../fixtures/", f"{FIXTURES}/")
    path.write_text(text + extra)
    return path


@pytest.fixture(scope="module")
def pt_run(tmp_path_factory):
    """One `semsurf run` of the pt fixture: its run directory and the texts of each ProviderClient.embed_batch call."""
    root = tmp_path_factory.mktemp("pt")
    embedded = []
    embed_batch = providers.ProviderClient.embed_batch

    def counting_embed_batch(self, cfg, texts):
        embedded.append(list(texts))
        return embed_batch(self, cfg, texts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(providers.ProviderClient, "embed_batch", counting_embed_batch)
        conf = pt_fixture_config(root / "pt.conf")
        run_dir = root / "run"
        result = CliRunner().invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
    assert result.exit_code == EXIT_OK, result.output
    return run_dir, embedded


class TestEmbedOnce:
    def test_each_text_is_embedded_once(self, pt_run):
        _, batches = pt_run
        assert [len(texts) for texts in batches] == [40] * 8  # one batch per kind, one text per item

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


class TestClassifyPaths:
    def test_stacked_and_per_kind_training_write_the_same_bytes(self, pt_run, tmp_path, runner, monkeypatch):
        conf = pt_fixture_config(tmp_path / "pt.conf")
        run_dir = tmp_path / "run"
        shutil.copytree(pt_run[0], run_dir)
        default, stacks = classifier.STACK_BYTES, []
        train_stack = classifier.train_stack
        monkeypatch.setattr(classifier, "train_stack", lambda x, *args: stacks.append(len(x)) or train_stack(x, *args))
        written = []
        for limit in (default, 0):
            monkeypatch.setattr(classifier, "STACK_BYTES", limit)
            stacks.clear()
            result = runner.invoke(main, ["classify", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == EXIT_OK, result.output
            written.append(((run_dir / "classification.json").read_bytes(), len(stacks), set(stacks)))
        # 10 seeds x 5 folds: a stack of the 8 kinds per fold at the default, a stack of one kind per kind and fold at 0
        assert [calls for _, *calls in written] == [[50, {8}], [400, {1}]]
        assert written[0][0] == written[1][0] == (pt_run[0] / "classification.json").read_bytes()

    def test_the_default_stacks_the_picture_corpora_only(self):
        # the chunks of 8 kinds of 256 columns: dogstory40 (0.66 MB) as one stack, dogstory139 (2.3 MB) in stacks
        # of at most 1 MiB, and a 400-item corpus (6.6 MB) one kind at a time
        plan = {rows: classifier.chunks([*range(8)], rows, 256) for rows in (40, 139, 400)}
        assert plan == {40: [[*range(8)]], 139: [[0, 1, 2], [3, 4, 5], [6, 7]], 400: [[i] for i in range(8)]}

    @pytest.mark.parametrize("stack_bytes", [classifier.STACK_BYTES, 0], ids=["one stack", "one kind at a time"])
    def test_a_kind_that_fails_is_named_in_any_chunk(self, pt_run, tmp_path, runner, monkeypatch, stack_bytes):
        # Storyboard, 7th of the 8 kinds, scaled by 1e200: its first step takes the next epoch's training loss past the
        # float range
        monkeypatch.setattr(classifier, "STACK_BYTES", stack_bytes)
        conf = pt_fixture_config(tmp_path / "pt.conf")
        run_dir = tmp_path / "run"
        shutil.copytree(pt_run[0], run_dir)
        npy = run_dir / "transformed" / "Storyboard.npy"
        np.save(npy, np.load(npy) * 1e200)
        result = runner.invoke(main, ["classify", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert "Storyboard: seed 420294 fold 0: non-finite training loss at epoch 2: nan" in result.output

    @pytest.mark.parametrize(
        "command, stack_bytes",
        [("classify", classifier.STACK_BYTES), ("classify", 0), ("similarity", classifier.STACK_BYTES)],
        ids=["classify", "classify one kind at a time", "similarity"],
    )
    def test_a_kind_of_other_columns_exits_2(self, pt_run, tmp_path, runner, monkeypatch, command, stack_bytes):
        monkeypatch.setattr(classifier, "STACK_BYTES", stack_bytes)
        conf = pt_fixture_config(tmp_path / "pt.conf")
        run_dir = tmp_path / "run"
        shutil.copytree(pt_run[0], run_dir)
        np.save(run_dir / "transformed" / "Storyboard.npy", np.zeros((40, 3)))
        result = runner.invoke(main, [command, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert "transformed/Storyboard.npy has 3 columns where the other kinds' arrays have 256" in result.output
        assert "run `semsurf transform`" in result.output


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="the goldens hold repr floats of Python's `sum`, which 3.12 compensates"
)
def test_dogstory139_matches_its_goldens(tmp_path, runner):
    """dogstory139's larger vocabularies pin bits of the similarity matrices that dogstory40 cannot."""
    conf = pt_fixture_config(tmp_path / "pt139.conf", fixture="run_mock_pt139.conf")
    run_dir = tmp_path / "run"
    for stage in ("ingest", "transform", "similarity", "lexical"):
        result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_OK, (stage, result.output)
    for name in ("similarity.json", "lexical.json"):
        assert (run_dir / name).read_bytes() == (GOLDEN_139 / name).read_bytes(), name
    goldens = sorted(GOLDEN_139.glob("matrix_*.csv"))
    assert [p.name for p in goldens] == [f"matrix_{m}.csv" for m in sorted(METRICS)]
    for golden in goldens:
        assert (run_dir / "reports" / golden.name).read_bytes() == golden.read_bytes(), golden.name
    # each .npy file byte for byte, header included
    npy_files = sorted((run_dir / "transformed").glob("*.npy"))
    digests = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}" for p in npy_files]
    assert digests == (GOLDEN_139 / "npy_files.sha256").read_text().splitlines()


def file_stats(directory):
    """Inode, mtime and size of every file under `directory`."""
    return {p: (st.st_ino, st.st_mtime_ns, st.st_size) for p in directory.rglob("*") for st in [p.stat()]}


class TestProviderCache:
    """After any stage, the cache directory holds one database and nothing else."""

    def test_warm_run_leaves_the_cache_unchanged(self, pt_run, tmp_path, runner):
        run_dir = tmp_path / "run"
        shutil.copytree(pt_run[0], run_dir)
        before = file_stats(run_dir / "cache")
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_OK, result.output
        assert [p.name for p in (run_dir / "cache").iterdir()] == ["responses.sqlite3"]
        assert file_stats(run_dir / "cache") == before

    def test_offline_miss_leaves_no_journal(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        conf.write_text(conf.read_text().replace("mock:chat", "http://localhost:9/v1/chat"))
        run_dir = tmp_path / "run"
        for stage, code in (("ingest", EXIT_OK), ("transform", EXIT_PROVIDER)):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == code, result.output
        assert "cache miss" in result.output
        assert [p.name for p in (run_dir / "cache").iterdir()] == ["responses.sqlite3"]

    def test_offline_embed_miss_exits_3(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        conf.write_text(conf.read_text().replace("mock:embed", "http://localhost:9/v1/embeddings"))
        run_dir = tmp_path / "run"
        for stage, code in (("ingest", EXIT_OK), ("transform", EXIT_PROVIDER)):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == code, result.output
        assert result.output.startswith("provider error: cache miss for "), result.output
        assert [p.name for p in (run_dir / "cache").iterdir()] == ["responses.sqlite3"]

    def test_malformed_embed_response_exits_3(self, tmp_path, runner, monkeypatch):
        """An embedding response without a vector, or whose vector fails its check, is a provider error."""
        cases = [  # (response body, message)
            ({"data": []}, "malformed embed response: IndexError('list index out of range')"),
            ({"data": [{"embedding": [float("nan"), 1.0]}]}, "embedding contains non-finite entries"),
            ({"data": [{"embedding": []}]}, "embedding must be non-empty"),
        ]

        class Embeddings:
            def post(self, url, json=None, headers=None, timeout=None):
                return ShortSummaryFailures.Response(200, body)

        monkeypatch.setattr(cli, "ProviderClient", functools.partial(providers.ProviderClient, session=Embeddings()))
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        conf.write_text(conf.read_text().replace("mock:embed", "http://localhost:9/v1/embeddings"))
        for i, (body, message) in enumerate(cases):
            run_dir = tmp_path / f"run{i}"
            for stage, code in (("ingest", EXIT_OK), ("transform", EXIT_PROVIDER)):
                result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir)])
                assert result.exit_code == code, result.output
            assert result.output.splitlines()[-1] == f"provider error: {message}"
            assert not list((run_dir / "transformed").glob("*.npy"))
            with closing(sqlite3.connect(run_dir / "cache" / "responses.sqlite3")) as db:
                kinds = {json.loads(provider)["kind"] for provider, in db.execute("SELECT provider FROM responses")}
            assert "embed" not in kinds

    def test_a_cache_that_is_not_a_database_exits_2(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        run_dir = tmp_path / "run"
        database = run_dir / "cache" / "responses.sqlite3"
        database.parent.mkdir(parents=True)
        database.write_text("not a database\n")
        for stage, code in (("ingest", EXIT_OK), ("transform", EXIT_DATA)):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == code, result.output
        assert result.output.splitlines() == [
            f"error: cannot open the provider cache {database}: file is not a database"
        ]
        assert database.read_text() == "not a database\n"
        assert not (run_dir / "transformed").exists()

    @pytest.mark.parametrize("version", [0, 2])
    def test_a_cache_of_another_format_exits_2(self, tmp_path, runner, version):
        """A cache database with a table at user_version 0, as semsurf wrote before the version, or at any
        other version is refused and left as it was."""
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        run_dir = tmp_path / "run"
        database = run_dir / "cache" / "responses.sqlite3"
        database.parent.mkdir(parents=True)
        record = providers.GenerationRecord("0" * 64, "{}", "a reply", None, 1.5, {"kind": "chat"})
        write_database(database.parent, [record], version)
        for stage, code in (("ingest", EXIT_OK), ("transform", EXIT_DATA)):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == code, result.output
        assert result.output.splitlines() == [
            f"error: cannot open the provider cache {database}: it is of format {version}, not 1;"
            " move it aside to start a new cache"
        ]
        with closing(sqlite3.connect(database)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (version,)
            assert db.execute("SELECT * FROM responses").fetchall() == [providers.ResponseCache._row(record)]
        assert [p.name for p in database.parent.iterdir()] == ["responses.sqlite3"]
        assert not (run_dir / "transformed").exists()


def test_stages_without_embeddings_leave_numpy_unloaded(pt_run, tmp_path):
    """The stages that read no embeddings, ingest, transform (which writes them), lexical and report,
    in one process, never import numpy and write what `semsurf run` wrote."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("similarity.json", "classification.json"):
        shutil.copy(pt_run[0] / name, run_dir / name)
    conf = pt_fixture_config(tmp_path / "pt.conf")
    code = (
        "import sys\n"
        "from semsurf.cli import main\n"
        "for stage in ('ingest', 'transform', 'lexical', 'report'):\n"
        "    try:\n"
        "        main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2], '--offline'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (stage, exc.code)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = Path(classifier.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, str(conf), str(run_dir)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "False"
    transformed = sorted(p.name for p in (pt_run[0] / "transformed").iterdir())
    assert transformed == sorted(p.name for p in (run_dir / "transformed").iterdir())
    for name in ["lexical.json", "stats.json", *(f"transformed/{name}" for name in transformed)]:
        assert (run_dir / name).read_bytes() == (pt_run[0] / name).read_bytes(), name
    tables = sorted(p.name for p in (pt_run[0] / "reports").glob("table_*"))
    assert tables == sorted(p.name for p in (run_dir / "reports").iterdir())
    for name in tables:
        assert (run_dir / "reports" / name).read_bytes() == (pt_run[0] / "reports" / name).read_bytes(), name


@pytest.mark.parametrize("shape", [(0, 256), (1, 256), (40, 256)], ids=["0 rows", "1 row", "40 rows"])
def test_npy_bytes_are_what_np_save_writes(shape):
    array = np.random.default_rng(3).normal(size=shape)
    rows = [row.astype("<f8").tobytes() for row in array]
    saved = io.BytesIO()
    np.save(saved, np.array([np.frombuffer(row, "<f8") for row in rows], dtype=np.float64))
    written = cli.npy_bytes(rows)
    assert written == saved.getvalue()
    loaded = np.load(io.BytesIO(written))
    assert loaded.shape == (shape if rows else (0,))
    assert loaded.tobytes() == array.tobytes()


def test_transform_exits_2_on_embeddings_of_unequal_length(tmp_path, runner, monkeypatch):
    embed_batch = providers.ProviderClient.embed_batch

    def ragged_embed_batch(self, cfg, texts):
        rows = embed_batch(self, cfg, texts)
        return rows[:-1] + [rows[-1][:-8]]

    monkeypatch.setattr(providers.ProviderClient, "embed_batch", ragged_embed_batch)
    conf = tmp_path / "c.conf"
    write_config(conf, small_dataset(tmp_path))
    run_dir = tmp_path / "run"
    for stage, code in (("ingest", EXIT_OK), ("transform", EXIT_DATA)):
        result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == code, result.output
    assert result.output.splitlines()[-1] == "data error: Original: embeddings of unequal dimensions [255, 256]"


def read_json(run_dir, name):
    return json.loads((run_dir / name).read_text())


REPORT_INPUTS = (
    "dataset_stats.json", "similarity.json", "classification.json", "lexical.json", "transformed/manifest.json",
)


def copy_report_inputs(src, run_dir, skip=()):
    """Copy the artifacts that `report` reads, but those of `skip`, from the run directory `src` into `run_dir`."""
    (run_dir / "transformed").mkdir(parents=True)
    for name in set(REPORT_INPUTS) - set(skip):
        shutil.copy(src / name, run_dir / name)


def table_cells(reports, table):
    """Each format's (label, column, cell) triples of reports/table_<table>: the CSV text, the JSON value and the
    Markdown text of each cell."""
    cells = {}
    header, *rows = csv.reader((reports / f"table_{table}.csv").read_text().splitlines())
    cells["csv"] = [(label, column, cell) for label, *row in rows for column, cell in zip(header[1:], row)]
    obj = json.loads((reports / f"table_{table}.json").read_text())
    cells["json"] = [
        (row["label"], column, cell["value"]) for row in obj["rows"] for column, cell in zip(obj["columns"], row["cells"])
    ]
    lines = [line for line in (reports / f"table_{table}.md").read_text().splitlines() if line.startswith("| ")]
    header, *rows = ([cell.strip() for cell in line.strip("|").split("|")] for line in lines)
    cells["md"] = [(label, column, cell) for label, *row in rows for column, cell in zip(header[1:], row)]
    return cells


class TestOneProducerPerNumber:
    def test_every_table_number_is_an_artifact_number(self, pt_run, en_run):
        """Every number of every table, in each format, is the number of the artifact that it formats: at full
        precision in the CSV and JSON tables, and at the cell's display precision, bold and stars stripped, in the
        Markdown ones."""
        checked = [self.check_tables(run_dir) for run_dir in (pt_run[0], en_run)]
        # the dataset row's 3 counts, 3 scores of each of the 5 similarity kinds, and 3 means, 6 lexical and 9 POS
        # numbers of each kind: 8 kinds of the pt corpus, with 3 in the backtranslation table, and 6 of the en one
        assert checked == [3 + 5 * 3 + 8 * 3 + 3 * 3 + 8 * 6 + 8 * 9, 3 + 5 * 3 + 6 * 3 + 6 * 6 + 6 * 9]

    @staticmethod
    def check_tables(run_dir) -> int:
        """Check the tables of `run_dir`; the number of cells checked in each format."""
        per_group = read_json(run_dir, "dataset_stats.json")
        scores = read_json(run_dir, "similarity.json")["scores"]
        stats = read_json(run_dir, "stats.json")
        counts = {"AD": per_group["AD"]["count"], "Control": per_group["C"]["count"]}
        counts["Total"] = counts["AD"] + counts["Control"]
        metrics = {"chrF": "chrf", "BLEU": "bleu", "Cosine": "cosine"}
        cls_measures = {"macro-F1": "macro_f1", "Accuracy (AD)": "acc_ad", "Accuracy (C)": "acc_c"}
        welch_fields = {"C": "mean_control", "AD": "mean_ad", "p": "p_value"}

        def cls_mean(kind, column):
            return stats["classification"]["means"][kind][cls_measures[column]]

        def welch(kind, column):
            measure, side = column.rsplit("_", 1)
            return stats["welch"][kind][measure][welch_fields[side]]

        source = {  # table -> (the number a cell shows, by row label and column; its Markdown decimals)
            "dataset": (lambda name, column: counts[column], None),
            "similarity": (lambda kind, column: scores[kind][metrics[column]], 2),
            "classification": (cls_mean, 3),
            "backtranslation": (cls_mean, 3),
            "lexical": (welch, 3),
            "pos": (welch, 3),
        }
        checked = 0
        for table, (number, decimals) in source.items():
            if not (run_dir / "reports" / f"table_{table}.csv").exists():
                continue  # the backtranslation table of an English corpus, which is not translated
            cells = table_cells(run_dir / "reports", table)
            # the formats hold the same cells, and each shows the number it formats
            assert [cell[:2] for cell in cells["csv"]] == [cell[:2] for cell in cells["json"]]
            assert [cell[:2] for cell in cells["csv"]] == [cell[:2] for cell in cells["md"]]
            for (label, column, text), (*_, value), (*_, shown) in zip(cells["csv"], cells["json"], cells["md"]):
                if column.startswith("Length"):  # text: mean(±std) tokens
                    continue
                expected = number(label, column)
                assert float(text) == value == expected, (table, label, column)
                assert shown.strip("*") == (repr(expected) if decimals is None else f"{expected:.{decimals}f}"), (
                    table, label, column,
                )
                checked += 1
        return checked

    def test_similarity_scores_are_the_matrices_reference_column(self, pt_run):
        run_dir = pt_run[0]
        similarity = read_json(run_dir, "similarity.json")
        checked = 0
        for metric in METRICS:
            header, *rows = csv.reader((run_dir / "reports" / f"matrix_{metric}.csv").read_text().splitlines())
            assert header == ["", *(k.value for k in KIND_ORDER)]
            assert [label for label, *_ in rows] == header[1:]
            column = header.index(similarity["reference"])
            matrix = {label: cells for label, *cells in rows}
            for kind, scores in similarity["scores"].items():
                # the CSV's repr floats round-trip full precision
                assert scores[metric] == float(matrix[kind][column - 1]), (metric, kind)
                checked += 1
        assert checked == 3 * 5

    def test_lexical_values_are_per_item_and_welch_counts_them(self, pt_run):
        run_dir = pt_run[0]
        groups = [json.loads(line)["group"] for line in (run_dir / "dataset.jsonl").read_text().splitlines()]
        lexical = read_json(run_dir, "lexical.json")
        welch = read_json(run_dir, "stats.json")["welch"]
        assert sorted(lexical) == sorted(welch) and len(lexical) == 8
        for kind, measures in lexical.items():
            assert sorted(measures) == ["adv", "part", "pnr", "ttr", "zipf"]
            for measure, values in measures.items():
                assert {g: len(v) for g, v in values.items()} == {"AD": groups.count("AD"), "C": groups.count("C")}
                entry = welch[kind][measure]
                assert entry["n_control"] + entry["n_ad"] + entry["excluded"] == len(groups)
                assert entry["excluded"] == sum(v is None for side in values.values() for v in side)


class TestStatsPairing:
    """`report` checks the pairing the Wilcoxon tests rely on before it writes stats.json or a table."""

    def stats_on_edited_classification(self, pt_run, tmp_path, runner, edit):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        copy_report_inputs(pt_run[0], run_dir)
        cls = read_json(run_dir, "classification.json")
        edit(cls["runs"])
        (run_dir / "classification.json").write_text(json.dumps(cls))
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["report", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert not (run_dir / "stats.json").exists() and not (run_dir / "reports").exists()
        return result.output

    def test_unpaired_counts_rejected(self, pt_run, tmp_path, runner):
        output = self.stats_on_edited_classification(
            pt_run, tmp_path, runner, lambda runs: runs["ShortSummary"].pop()
        )
        assert "ShortSummary: 9 runs, expected one per seed" in output
        assert "(unpaired)" in output

    def test_missing_baseline_rejected(self, pt_run, tmp_path, runner):
        output = self.stats_on_edited_classification(pt_run, tmp_path, runner, lambda runs: runs.pop("Original"))
        assert "classification.json has no runs of the baseline Original" in output


class TestOperatingSystemErrors:
    """A stage that the operating system refuses exits 2 with one `error:` line, not a traceback."""

    def test_a_reports_file_exits_2(self, pt_run, tmp_path, runner):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        copy_report_inputs(pt_run[0], run_dir)
        (run_dir / "reports").write_text("")
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["report", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [f"error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: "
                                              f"'{run_dir / 'reports'}'"]
        assert not (run_dir / "stats.json").exists()

    def test_a_run_dir_below_a_file_exits_2(self, tmp_path, runner):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        blocker = tmp_path / "file"
        blocker.write_text("")
        run_dir = blocker / "run"
        result = runner.invoke(main, ["ingest", "--config", str(conf), "--run-dir", str(run_dir)])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: "
                                              f"'{run_dir}'"]


@pytest.fixture(scope="module")
def en_run(tmp_path_factory):
    """One `semsurf run` of the en fixture, a fixed split: its run directory."""
    root = tmp_path_factory.mktemp("en")
    conf = pt_fixture_config(root / "en.conf", fixture="run_mock_en.conf")
    run_dir = root / "run"
    result = CliRunner().invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
    assert result.exit_code == EXIT_OK, result.output
    return run_dir


def tie_structure(diffs):
    """The positions of the zero differences, and the groups of positions of the others whose |d| are equal:
    what the Wilcoxon test drops, and what it ranks as ties."""
    positions = {}
    for i, d in enumerate(diffs):
        positions.setdefault(abs(d), []).append(i)
    return positions.pop(0, []), sorted(positions.values())


class TestStatsInvariants:
    """stats.json is stattests.summarize of the run's artifacts, and each of its numbers is the one mean of
    theirs."""

    @pytest.fixture(params=["pt_run", "en_run"], ids=["cv", "fixed split"])
    def run_dir(self, request):
        run = request.getfixturevalue(request.param)
        return run[0] if request.param == "pt_run" else run

    def test_summarize_agrees_with_the_artifacts(self, run_dir):
        sim, cls, lex = (read_json(run_dir, name) for name in ("similarity.json", "classification.json", "lexical.json"))
        stats = stattests.summarize(sim, cls, lex, baseline="Original")
        assert stats == read_json(run_dir, "stats.json")
        measures = stattests.CLASSIFICATION_MEASURES
        for kind, kind_runs in cls["runs"].items():
            for run in kind_runs:
                for m in measures:
                    assert run[m] == stattests.mean([f[m] for f in run["folds"]]), (kind, run["seed"], m)
            for m in measures:
                assert stats["classification"]["means"][kind][m] == stattests.mean([r[m] for r in kind_runs]), kind
        assert stats["classification"]["n_runs"] == len(cls["seeds"]) == 10  # both fixtures set runs = 10
        assert sorted(stats["wilcoxon_vs_baseline"]) == sorted(set(cls["runs"]) - {"Original"})
        checked = 0
        for kind, per_measure in lex.items():
            for measure, values in per_measure.items():
                entry = stats["welch"][kind][measure]
                for side, group in (("control", "C"), ("ad", "AD")):
                    defined = [v for v in values[group] if v is not None]
                    assert entry[f"mean_{side}"] == stattests.mean(defined), (kind, measure, side)
                    assert entry[f"n_{side}"] == len(defined), (kind, measure, side)
                checked += 1
        assert sorted(lex) == sorted(cls["runs"]) and checked == 5 * len(lex)

    def test_the_wilcoxon_tests_see_the_ties_of_exact_arithmetic(self, pt_run):
        """The per-seed macro-F1 differences against the baseline that each Wilcoxon test receives have the zeros
        and the ties of the same differences taken exactly over the fold scores: mathematically equal means of
        folds are the same bits."""
        runs = read_json(pt_run[0], "classification.json")["runs"]

        def exact(run):
            folds = [Fraction(f["macro_f1"]).limit_denominator(100000) for f in run["folds"]]
            return sum(folds) / len(folds)

        base = runs.pop("Original")
        assert len(runs) == 7
        for kind, kind_runs in runs.items():
            received = [r["macro_f1"] - b["macro_f1"] for r, b in zip(kind_runs, base)]
            exact_diffs = [exact(r) - exact(b) for r, b in zip(kind_runs, base)]
            assert tie_structure(received) == tie_structure(exact_diffs), kind


class TestUnusableArtifacts:
    """A stage exits 2 on an artifact it cannot read, naming the artifact and the stage that writes it."""

    @pytest.mark.parametrize(
        "artifact, content, message",
        [
            ("similarity.json", "not json\n",
             "similarity.json is not JSON (Expecting value: line 1 column 1 (char 0)); run `semsurf similarity`"),
            # a lexical.json of the format that held Welch results, not values
            ("lexical.json", json.dumps({"Original": {"ttr": {"mean_control": 0.5, "mean_ad": 0.4, "p_value": 0.1}}}),
             'lexical.json entry Original/ttr is not {"AD": [...], "C": [...]}; run `semsurf lexical`'),
            ("classification.json", "[]",
             "classification.json is not a JSON object with keys runs, seeds; run `semsurf classify`"),
            ("classification.json", json.dumps({"runs": {"Original": 5}, "seeds": [1]}),
             "classification.json entry runs/Original is not a list of objects of numbers acc_ad, acc_c, macro_f1, "
             "seed; run `semsurf classify`"),
            ("classification.json",
             json.dumps({"runs": {"Original": [{"seed": 1, "macro_f1": "x", "acc_ad": 0.5, "acc_c": 0.5}]},
                         "seeds": [1]}),
             "classification.json entry runs/Original is not a list of objects of numbers acc_ad, acc_c, macro_f1, "
             "seed; run `semsurf classify`"),
            ("classification.json", json.dumps({"runs": {"Bogus": []}, "seeds": [1]}),
             "classification.json key runs holds 'Bogus', which is not a transformation kind; run `semsurf classify`"),
            ("classification.json",
             json.dumps({"protocol": "cv5", "seeds": [], "runs": {"Original": [], "Translated": []}}),
             "classification.json key seeds is not a non-empty JSON array; run `semsurf classify`"),
            ("lexical.json", json.dumps({"Original": []}),
             'lexical.json entry Original/ttr is not {"AD": [...], "C": [...]}; run `semsurf lexical`'),
            ("lexical.json", json.dumps({"Bogus": {}}),
             "lexical.json holds 'Bogus', which is not a transformation kind; run `semsurf lexical`"),
            ("similarity.json", json.dumps({"reference": "Original", "scores": []}),
             "similarity.json key scores is not a JSON object; run `semsurf similarity`"),
            ("similarity.json", json.dumps({"reference": "Translated", "scores": {"ShortSummary": 5}}),
             "similarity.json entry scores/ShortSummary is not an object of numbers bleu, chrf, cosine; "
             "run `semsurf similarity`"),
            ("similarity.json", json.dumps({"reference": "Bogus", "scores": {}}),
             "similarity.json key reference holds 'Bogus', which is not a transformation kind; "
             "run `semsurf similarity`"),
            ("similarity.json", json.dumps({"reference": "Translated", "scores": {"Bogus": {m: 0.5 for m in METRICS}}}),
             "similarity.json key scores holds 'Bogus', which is not a transformation kind; run `semsurf similarity`"),
        ],
        ids=["not JSON", "Welch-result lexical.json", "list classification.json", "int runs", "string macro_f1",
             "unknown runs kind", "no seeds", "list lexical kind", "unknown lexical kind", "list scores", "int score",
             "unknown reference", "unknown scores kind"],
    )
    def test_stats_exits_2_naming_the_producer(self, pt_run, tmp_path, runner, artifact, content, message):
        """`report` exits 2 on an input it cannot read, before it writes stats.json or a table."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        copy_report_inputs(pt_run[0], run_dir)
        (run_dir / artifact).write_text(content)
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["report", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [f"error: {message}"]
        assert not (run_dir / "stats.json").exists() and not (run_dir / "reports").exists()

    @pytest.mark.parametrize(
        "artifact, edit, message",
        [
            ("similarity.json", lambda sim: sim["scores"].update(Bogus=sim["scores"]["ShortSummary"]),
             "similarity.json key scores holds 'Bogus', which is not a transformation kind; run `semsurf similarity`"),
            ("dataset_stats.json", lambda per_group: per_group["AD"].pop("mean_tokens"),
             "dataset_stats.json key AD is not an object of numbers count, mean_tokens, std_tokens and a boolean "
             "degenerate; run `semsurf ingest`"),
        ],
        ids=["scores kind", "dataset stats without a mean"],
    )
    def test_report_exits_2_on_an_unknown_kind(self, pt_run, tmp_path, runner, artifact, edit, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        copy_report_inputs(pt_run[0], run_dir)
        obj = read_json(run_dir, artifact)
        edit(obj)
        (run_dir / artifact).write_text(json.dumps(obj))
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["report", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [f"error: {message}"]
        assert not (run_dir / "reports").exists() and not (run_dir / "stats.json").exists()

    def test_classify_exits_2_on_a_manifest_without_kinds(self, pt_run, tmp_path, runner):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(pt_run[0] / "dataset.jsonl", run_dir)
        shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
        (run_dir / "transformed" / "manifest.json").write_text("{}")
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["classify", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [
            "error: transformed/manifest.json is not a JSON object with keys kinds, embed, failures; "
            "run `semsurf transform`"
        ]
        assert not (run_dir / "classification.json").exists()

    @pytest.mark.parametrize("stage, output", [
        ("similarity", "similarity.json"), ("lexical", "lexical.json"), ("classify", "classification.json"),
    ])
    def test_a_manifest_without_original_exits_2(self, pt_run, tmp_path, runner, stage, output):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(pt_run[0] / "dataset.jsonl", run_dir)
        shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
        manifest = run_dir / "transformed" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "kinds": []}))
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [
            "error: transformed/manifest.json does not list Original; run `semsurf transform`"
        ]
        assert not (run_dir / output).exists()

    def test_lexical_exits_2_on_an_unknown_manifest_kind(self, pt_run, tmp_path, runner):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(pt_run[0] / "dataset.jsonl", run_dir)
        shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
        manifest = run_dir / "transformed" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "kinds": ["Original", "Bogus"]}))
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["lexical", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [
            "error: transformed/manifest.json lists 'Bogus', which is not a transformation kind; "
            "run `semsurf transform`"
        ]
        assert not (run_dir / "lexical.json").exists()

    @pytest.mark.parametrize("stage, output", [
        ("lexical", "lexical.json"), ("classify", "classification.json"), ("similarity", "similarity.json"),
    ], ids=["lexical", "classify", "similarity"])
    @pytest.mark.parametrize("field, problem", [
        ("kind", "KeyError: 'kind'"),
        # a derived kind's item must name what it was made from
        ("provenance", "ValueError: ShortSummary: items without provenance: ['pt005']"),
    ], ids=["no kind", "no provenance"])
    def test_a_record_without_kind_or_provenance_exits_2(self, pt_run, tmp_path, runner, stage, output, field,
                                                         problem):
        """Each stage that reads the corpora, all at once or one at a time, makes the same checks of them."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(pt_run[0] / "dataset.jsonl", run_dir)
        shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
        jsonl = run_dir / "transformed" / "ShortSummary.jsonl"
        lines = jsonl.read_text().splitlines(keepends=True)
        record = json.loads(lines[4])
        del record[field]
        jsonl.write_text("".join(lines[:4] + [json.dumps(record) + "\n"] + lines[5:]))
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [
            f"error: transformed/ShortSummary.jsonl cannot be read ({problem}); run `semsurf transform`"
        ]
        assert not (run_dir / output).exists()

    def test_classify_exits_2_on_a_truncated_array(self, pt_run, tmp_path, runner):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(pt_run[0] / "dataset.jsonl", run_dir)
        shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
        npy = run_dir / "transformed" / "ShortSummary.npy"
        npy.write_bytes(npy.read_bytes()[:-8])
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, ["classify", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        [line] = result.output.splitlines()
        assert line.startswith("error: transformed/ShortSummary.npy cannot be read (ValueError: "), line
        assert line.endswith("); run `semsurf transform`"), line
        assert not (run_dir / "classification.json").exists()

    @pytest.mark.parametrize("stage, output", [
        ("similarity", "similarity.json"), ("lexical", "lexical.json"), ("classify", "classification.json"),
    ])
    def test_corpora_without_the_same_ids_exit_2(self, pt_run, tmp_path, runner, stage, output):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(pt_run[0] / "dataset.jsonl", run_dir)
        shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
        # drop pt005 from ShortSummary, text and vector alike
        jsonl, npy = (run_dir / "transformed" / f"ShortSummary.{ext}" for ext in ("jsonl", "npy"))
        lines = jsonl.read_text().splitlines(keepends=True)
        assert json.loads(lines[4])["id"] == "pt005"
        jsonl.write_text("".join(lines[:4] + lines[5:]))
        np.save(npy, np.delete(np.load(npy), 4, axis=0))
        conf = pt_fixture_config(tmp_path / "pt.conf")
        result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert result.output.splitlines() == [
            "error: transformed/ShortSummary.jsonl does not match the ids of BackTranslated.jsonl; "
            "run `semsurf transform`"
        ]
        assert not (run_dir / output).exists()
        assert not (run_dir / "reports").exists()


class TestShapes:
    """cli.SHAPES declares each JSON artifact that a stage reads, and what each fixture's run writes fits it."""

    def test_a_cv_run_writes_the_declared_shapes(self, pt_run):
        for artifact in cli.SHAPES:
            cli.check(artifact, read_json(pt_run[0], artifact))

    def test_a_fixed_split_run_reads_the_declared_artifacts_in_their_shapes(self, tmp_path, runner, monkeypatch):
        read = set()
        original = cli.RunContext.read_json

        def recording_read_json(self, artifact):
            read.add(artifact)
            return original(self, artifact)

        monkeypatch.setattr(cli.RunContext, "read_json", recording_read_json)
        conf = tmp_path / "en.conf"
        conf.write_text((FIXTURES / "run_mock_en.conf").read_text().replace("../../fixtures/", f"{FIXTURES}/"))
        run_dir = tmp_path / "run"
        for stage, _ in STAGES:
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == EXIT_OK, (stage, result.output)
        assert read == set(cli.SHAPES)
        assert read_json(run_dir, "classification.json")["protocol"] == "fixed_split"
        for artifact in cli.SHAPES:
            cli.check(artifact, read_json(run_dir, artifact))


class TestSharedPartitions:
    def test_classify_draws_each_seeds_partitions_once_for_every_kind(self, tmp_path, runner, monkeypatch):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        run_dir = tmp_path / "run"
        for stage in ("ingest", "transform"):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == EXIT_OK, result.output
        drawn, held_out, by_kind = [], [], {}
        split_folds, holdout, train_stack = corpus.split_folds, classifier._stratified_holdout, classifier.train_stack

        def recording_split_folds(transcripts, k, seed):
            drawn.append(seed)
            return split_folds(transcripts, k, seed)

        def recording_holdout(*args):
            held_out.append(args)
            return holdout(*args)

        # these small arrays train as one stack: each call trains every kind's head of a fold
        def recording_train_stack(x, fold, cfg):
            rows = np.union1d(fold.descent.index, fold.validation.index)
            for k in range(len(x)):
                by_kind.setdefault(k, []).append((fold, rows.tolist(), fold.test.tolist()))
            return train_stack(x, fold, cfg)

        monkeypatch.setattr(corpus, "split_folds", recording_split_folds)
        monkeypatch.setattr(classifier, "_stratified_holdout", recording_holdout)
        monkeypatch.setattr(classifier, "train_stack", recording_train_stack)
        result = runner.invoke(main, ["classify", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_OK, result.output
        evaluated = [call for calls in by_kind.values() for call in calls]
        cls = read_json(run_dir, "classification.json")
        assert cls["protocol"] == "cv3"
        assert drawn == cls["seeds"]  # once per seed, not once per kind and seed
        per_kind = len(cls["seeds"]) * 3
        assert len(held_out) == per_kind  # each (seed, fold) is prepared once, not once per kind
        assert len(cls["runs"]) == 8 and len(evaluated) == 8 * per_kind
        # every kind trains on the first kind's folds, the very same objects
        for i in range(0, len(evaluated), per_kind):
            for (fold, *rows), (first, *first_rows) in zip(evaluated[i:i + per_kind], evaluated[:per_kind]):
                assert fold is first and rows == first_rows


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
    "no Original": ("enabled = ShortSummary", None, "enabled"),
    "missing frequency table": ("frequency_table = no_such.tsv", None, "frequency_table"),
    "translate missing for pt": (None, "translate.endpoint", "translate.endpoint"),
    "kinds made from English without Translated for pt": ("enabled = Original, Storyboard", None, "enabled"),
    "t2i missing for ImageDescription": (None, "t2i.endpoint", "t2i.endpoint"),
    "i2t missing for ImageDescription": (None, "i2t.endpoint", "i2t.endpoint"),
    "master_seed below 0": ("master_seed = -1", None, "master_seed"),
    "nan zipf_oov_floor": ("zipf_oov_floor = nan", None, "zipf_oov_floor"),
    "infinite l2": ("train.l2 = inf", None, "train.l2"),
    "negative l2": ("train.l2 = -1", None, "train.l2"),
    "patience 0": ("train.patience = 0", None, "train.patience"),
    "negative patience": ("train.patience = -3", None, "train.patience"),
    "learning_rate 0": ("train.learning_rate = 0", None, "train.learning_rate"),
    "negative learning_rate": ("train.learning_rate = -1", None, "train.learning_rate"),
    "max_epochs 0": ("train.max_epochs = 0", None, "train.max_epochs"),
    "validation_fraction 0.5": ("train.validation_fraction = 0.5", None, "train.validation_fraction"),
    "embed.dimension 0": ("embed.dimension = 0", None, "embed.dimension"),
    "negative embed.dimension": ("embed.dimension = -256", None, "embed.dimension"),
    "chat.max_tokens 0": ("chat.max_tokens = 0", None, "chat.max_tokens"),
    "negative chat.max_tokens": ("chat.max_tokens = -1", None, "chat.max_tokens"),
}

# keys that configs once accepted and no provider call or stage read
REMOVED_KEYS = [
    *(
        f"{role}.{key}"
        for role in ("translate", "t2i", "i2t")
        for key in ("temperature", "max_tokens", "seed", "dimension")
    ),
    "embed.temperature", "embed.max_tokens", "embed.seed", "chat.dimension",
    "prompt.Original", "prompt.Translated", "prompt.BackTranslated",
]


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

    def test_transform_needs_translated_for_kinds_made_from_english(self, tmp_path, runner):
        """A corpus not in English is scored against its Translated text, so `transform`, as `ingest`, exits 1 on an
        `enabled` without Translated but with a kind made from the English text; an English corpus needs none."""
        conf = tmp_path / "c.conf"
        run_dir = tmp_path / "run"
        args = ["--config", str(conf), "--run-dir", str(run_dir), "--offline"]
        write_config(conf, small_dataset(tmp_path))
        assert runner.invoke(main, ["ingest", *args]).exit_code == EXIT_OK
        write_config(conf, small_dataset(tmp_path), extra="enabled = Original, Storyboard, ShortSummary")
        line = conf.read_text().splitlines().index("enabled = Original, Storyboard, ShortSummary") + 1
        result = runner.invoke(main, ["transform", *args])
        assert result.exit_code == EXIT_USAGE, result.output
        assert result.output.splitlines() == [
            f"error: {conf}:{line}: enabled: lists ShortSummary, Storyboard but not Translated, which a corpus in "
            "'pt' needs as the reference of the kinds made from its English text"
        ]
        assert not (run_dir / "transformed").exists()
        write_config(conf, small_dataset(tmp_path, language="en"), extra="enabled = Original, Storyboard, ShortSummary")
        assert runner.invoke(main, ["ingest", *args]).exit_code == EXIT_OK

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, runner, key):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra=f"{key} = 1")
        line = conf.read_text().splitlines().index(f"{key} = 1") + 1
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_USAGE, result.output
        assert result.output.splitlines()[-1] == f"error: {conf}:{line}: {key}: unknown key"
        assert not run_dir.exists()


def fail_short_summaries(monkeypatch, ids):
    """Make the mock chat fail the ShortSummary of each of small_dataset's `ids`."""
    real = providers.mock_chat

    def chat(system_prompt, user_text):
        if system_prompt == DEFAULT_PROMPTS[TransformationKind.SHORT_SUMMARY]:
            for item_id in ids:
                if user_text.endswith(f" item {int(item_id[1:])}."):
                    raise RuntimeError(f"no summary for {item_id}")
        return real(system_prompt, user_text)

    monkeypatch.setattr(providers, "mock_chat", chat)


class ShortSummaryFailures:
    """A fake HTTP chat session that answers as the mock does, but fails the
    ShortSummary of each of small_dataset's `ids` with a 400, each one once the
    one listed before it has failed (or after 10 s); `failed` lists them in the
    order they failed."""

    class Response:
        def __init__(self, status_code, body=None, text=""):
            self.status_code, self._body, self.text = status_code, body, text

        def json(self):
            return self._body

    def __init__(self, ids):
        self.ids = ids
        self.raised = [threading.Event() for _ in ids]
        self.failed = []

    def post(self, url, json=None, headers=None, timeout=None):
        system, user = (message["content"] for message in json["messages"])
        if system == DEFAULT_PROMPTS[TransformationKind.SHORT_SUMMARY]:
            for n, item_id in enumerate(self.ids):
                if user.endswith(f" item {int(item_id[1:])}."):
                    if n:
                        self.raised[n - 1].wait(timeout=10)
                    self.failed.append(item_id)
                    self.raised[n].set()
                    return self.Response(400, text=f"no summary for {item_id}")
        return self.Response(200, {"choices": [{"message": {"content": providers.mock_chat(system, user)}}]})


class TestLenientRun:
    def test_every_artifact_keeps_the_ids_that_did_not_fail(self, tmp_path, runner, monkeypatch):
        fail_short_summaries(monkeypatch, ["s01", "s06"])
        # `run` classifies in a worker process, so the calls are recorded as JSON lines in a file
        calls = tmp_path / "calls.jsonl"
        prepare, train_stack = classifier.prepare, classifier.train_stack

        def record(name, value):
            with calls.open("a") as f:
                f.write(json.dumps([name, value]) + "\n")

        def recording_prepare(ids, labels, splits, cfg):
            record("prepare", ids)
            for _, seed_folds in splits:
                for train, test in seed_folds:
                    record("prepare", sorted(train + test))
            return prepare(ids, labels, splits, cfg)

        # these small arrays train as one stack: each call trains every kind's head of a fold
        def recording_train_stack(x, fold, cfg):
            rows = np.concatenate([fold.descent.index, fold.validation.index, fold.test])
            for kind_x in x:
                record("train", [len(kind_x), sorted(set(rows.tolist()))])
            return train_stack(x, fold, cfg)

        monkeypatch.setattr(classifier, "prepare", recording_prepare)
        monkeypatch.setattr(classifier, "train_stack", recording_train_stack)
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
        recorded = [json.loads(line) for line in calls.read_text().splitlines()]
        fold_ids = [value for name, value in recorded if name == "prepare"]
        fold_rows = [tuple(value) for name, value in recorded if name == "train"]
        assert len(fold_ids) == 1 + 4 * 3  # the rows' ids, then seeds x folds
        assert all(ids == kept for ids in fold_ids)
        assert len(fold_rows) == 8 * 4 * 3  # kinds x seeds x folds
        assert all(rows == (len(kept), list(range(len(kept)))) for rows in fold_rows)
        assert sorted(cls["runs"]) == sorted(manifest["kinds"])
        # the dataset table counts every transcript, and names the two that every analysis left out
        dataset_table = (run_dir / "reports" / "table_dataset.md").read_text().splitlines()
        assert dataset_table[4].startswith("| clitest | 4 | 8 | 12 | ")
        assert dataset_table[-1] == (
            "*Counted above but left out of every analysis (mode = lenient): s01, s06 failed ShortSummary.*"
        )

    def test_failures_are_listed_in_source_order(self, tmp_path, runner, monkeypatch):
        session = ShortSummaryFailures(["s06", "s01"])  # s01's request waits for s06 to fail
        monkeypatch.setattr(cli, "ProviderClient", functools.partial(providers.ProviderClient, session=session))
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra="mode = lenient\nmax_workers = 4")
        conf.write_text(conf.read_text().replace("mock:chat", "http://localhost:9/v1/chat"))
        run_dir = tmp_path / "run"
        for stage in ("ingest", "transform"):
            result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir)])
            assert result.exit_code == EXIT_OK, result.output
        assert session.failed == ["s06", "s01"]
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
    result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
    assert result.exit_code == EXIT_OK, result.output
    rows = (run_dir / "reports" / "table_dataset.md").read_text().splitlines()
    assert rows[4].startswith("| dogstory40 | "), rows


class TestRunSchedule:
    """`run` runs the stages of a wave at once, in worker processes, and writes what running them in turn writes."""

    def test_stages_form_four_waves(self):
        assert cli.waves() == [["ingest"], ["transform"], ["similarity", "classify", "lexical"], ["report"]]

    def test_declared_reads_are_what_each_stage_asks_for(self, tmp_path, runner, monkeypatch):
        asked = {name: set() for name, _ in STAGES}
        need = cli.RunContext.need
        current = None

        def recording_need(self, artifact):
            asked[current].add(artifact.split("/")[0])
            return need(self, artifact)

        monkeypatch.setattr(cli.RunContext, "need", recording_need)
        conf = pt_fixture_config(tmp_path / "pt.conf")
        run_dir = tmp_path / "run"
        for current, _ in STAGES:
            result = runner.invoke(main, [current, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
            assert result.exit_code == EXIT_OK, (current, result.output)
        assert asked == {name: set(cli.READS[name]) for name, _ in STAGES}

    def test_the_number_of_workers_changes_no_output(self, tmp_path):
        src = Path(classifier.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        outputs = []
        for workers in (1, 3):
            conf = pt_fixture_config(tmp_path / f"pt{workers}.conf", f"\nmax_workers = {workers}\n")
            run_dir = tmp_path / f"run{workers}"
            args = ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"]
            out = subprocess.run(
                [sys.executable, "-m", "semsurf.cli", *args], env=env, capture_output=True, text=True, timeout=300
            )
            assert out.returncode == EXIT_OK and out.stderr == "", out.stderr
            files = {
                str(p.relative_to(run_dir)): p.read_bytes()
                for p in sorted(run_dir.rglob("*"))
                if p.is_file() and p.relative_to(run_dir).parts[0] not in ("cache", "run_manifest.json")
            }
            outputs.append((out.stdout.replace(str(run_dir), "<run>").splitlines(), files))
        (lines, files), (lines_3, files_3) = outputs
        assert [line.split()[0] for line in lines] == [
            "ingested", "transformed", "similarity", "classified", "lexical", "reports"
        ]
        assert lines_3 == lines
        assert files_3.keys() == files.keys() and len(files) > 30
        for name in files:
            assert files_3[name] == files[name], name

    @pytest.mark.parametrize("other_thread", [False, True], ids=["fork", "spawn while a thread is alive"])
    def test_workers_fork_only_from_one_thread_and_are_reaped(self, tmp_path, runner, monkeypatch, other_thread):
        forks = []  # (pid, threads alive) of each fork in this process
        fork = os.fork

        def recording_fork():
            threads = threading.active_count()
            pid = fork()
            if pid:
                forks.append((pid, threads))
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra="max_workers = 2")
        run_dir = tmp_path / "run"
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        if other_thread:
            thread.start()
        try:
            result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        finally:
            release.set()
            if other_thread:
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert result.exit_code == EXIT_OK, result.output
        assert len(result.output.splitlines()) == len(STAGES)
        assert json.loads((run_dir / "classification.json").read_text())["protocol"] == "cv3"
        if other_thread:
            assert forks == []
        else:
            assert [threads for _, threads in forks] == [1, 1]  # min(max_workers, 3 stages) workers
        for pid, _ in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []

    def test_the_first_failure_in_stage_order_decides(self, tmp_path, runner, monkeypatch):
        """A corrupt embedding array fails similarity and classify, not lexical; `run` reports
        similarity's error, as `semsurf similarity` alone does, and stops before report."""
        transform = dict(STAGES)["transform"]

        def corrupting_transform(ctx):
            transform(ctx)
            (ctx.run_dir / "transformed" / "ShortSummary.npy").write_bytes(b"not an array\n")

        monkeypatch.setattr(cli, "STAGES", [(n, corrupting_transform if n == "transform" else f) for n, f in STAGES])
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_DATA, result.output
        assert "Traceback" not in result.output
        assert not (run_dir / "stats.json").exists() and not (run_dir / "classification.json").exists()
        assert (run_dir / "lexical.json").exists()  # a sibling of the failed stage still writes its artifact
        alone = runner.invoke(main, ["similarity", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert alone.exit_code == EXIT_DATA
        assert "ShortSummary.npy cannot be read" in alone.stderr
        assert result.stderr.splitlines() == alone.stderr.splitlines()[:1]
        # stage order, not the order the workers finish in: lexical's line follows similarity's, which failed
        assert [line.split()[0] for line in result.stdout.splitlines()] == ["ingested", "transformed"]

    def test_a_wave_is_submitted_in_table_order_and_written_in_it(self, tmp_path, runner, monkeypatch):
        """The workers take similarity and classify first and lexical last; however the stages
        finish (here similarity last), their output is written in table order."""
        import concurrent.futures

        submitted = []
        pool = concurrent.futures.ProcessPoolExecutor

        class RecordingPool(pool):
            def submit(self, fn, name, *args):
                submitted.append(name)
                return super().submit(fn, name, *args)

        similarity = dict(STAGES)["similarity"]

        def slow_similarity(ctx):
            time.sleep(0.5)  # in the forked worker, which inherits this table
            similarity(ctx)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "STAGES", [(n, slow_similarity if n == "similarity" else f) for n, f in STAGES])
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra="max_workers = 2")
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
        assert result.exit_code == EXIT_OK, result.output
        assert submitted == ["similarity", "classify", "lexical"]
        assert [line.split()[0] for line in result.stdout.splitlines()] == [
            "ingested", "transformed", "similarity", "classified", "lexical", "reports"
        ]
        assert json.loads((run_dir / "run_manifest.json").read_text())["stages"] == [name for name, _ in STAGES]


def test_importing_the_cli_leaves_the_cache_modules_unloaded(pt_run, tmp_path):
    """Only the cache imports sqlite3, only HTTP misses concurrent.futures, and only cache keys and mock digests
    hashlib (and its OpenSSL _hashlib); classify draws its holdouts without numpy.random and finds its classes
    without numpy.ma. Neither the import of the CLI nor the stages that call no provider, in one process, load any
    of them, and those stages write what `semsurf run` wrote; transform, the control, does load hashlib."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
    conf = pt_fixture_config(tmp_path / "pt.conf")
    code = (
        "import sys\n"
        "from semsurf.cli import main\n"
        "modules = ('sqlite3', 'concurrent.futures', 'numpy.random', 'hashlib', '_hashlib', 'numpy.ma')\n"
        "def stages(*names):\n"
        "    for stage in names:\n"
        "        try:\n"
        "            main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2], '--offline'])\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0, (stage, exc.code)\n"
        "    print('loaded:', *(m for m in modules if m in sys.modules))\n"
        "print('loaded:', *(m for m in modules if m in sys.modules))\n"
        "stages('ingest', 'similarity', 'classify', 'lexical', 'report')\n"
        "sys.argv[2] += '-transform'\n"
        "stages('ingest', 'transform')\n"
    )
    src = Path(classifier.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, str(conf), str(run_dir)], env=env, capture_output=True, text=True, check=True
    )
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded:", "loaded:", "loaded: sqlite3 hashlib _hashlib"], out.stdout
    assert not (run_dir / "cache").exists()
    for name in ("dataset.jsonl", "dataset_stats.json", "similarity.json", "classification.json", "lexical.json",
                 "stats.json"):
        assert (run_dir / name).read_bytes() == (pt_run[0] / name).read_bytes(), name


@pytest.mark.parametrize("stage, held", [("classify", [0] * 8), ("lexical", list(range(8)))])
def test_classify_holds_one_corpus_at_a_time(pt_run, tmp_path, runner, monkeypatch, stage, held):
    """classify reads the corpora one at a time and keeps none of them, so when it reads a kind's corpus no
    other is alive; lexical, which keeps them all, has every earlier kind's alive."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    shutil.copy(pt_run[0] / "dataset.jsonl", run_dir)
    shutil.copytree(pt_run[0] / "transformed", run_dir / "transformed")
    loaded = []  # a weak reference to each corpus read (a corpus, which holds a dict, cannot be hashed)
    alive = []  # how many of them are alive as each next one starts to load
    load = TransformedCorpus.load.__func__

    def tracked(cls, path):
        alive.append(sum(ref() is not None for ref in loaded))
        corpus = load(cls, path)
        loaded.append(weakref.ref(corpus))
        return corpus

    monkeypatch.setattr(TransformedCorpus, "load", classmethod(tracked))
    conf = pt_fixture_config(tmp_path / "pt.conf")
    result = runner.invoke(main, [stage, "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
    assert result.exit_code == EXIT_OK, result.output
    assert alive == held
    output = {"classify": "classification.json", "lexical": "lexical.json"}[stage]
    assert (run_dir / output).read_bytes() == (pt_run[0] / output).read_bytes()


def test_report_writes_exactly_the_listed_tables(pt_run, tmp_path, runner):
    """`report` writes each table of report.tables in every format and no other table, and a rerun of it leaves
    every other file of reports/ as it was."""
    run_dir = tmp_path / "run"
    shutil.copytree(pt_run[0], run_dir)
    reports = run_dir / "reports"
    inputs = [read_json(run_dir, name) for name in ("dataset_stats.json", "similarity.json", "stats.json")]
    listed = report.tables(*inputs, "dogstory40", read_json(run_dir, "transformed/manifest.json")["failures"])
    assert list(listed) == ["dataset", "similarity", "classification", "backtranslation", "lexical", "pos"]
    written = {f"table_{name}.{fmt}": report.emit(table, fmt)
               for name, table in listed.items() if table is not None for fmt in report.FORMATS}
    assert {p.name: p.read_text() for p in reports.glob("table_*")} == written
    (reports / "notes.md").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in reports.iterdir()}
    conf = pt_fixture_config(tmp_path / "pt.conf")
    result = runner.invoke(main, ["report", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
    assert result.exit_code == EXIT_OK, result.output
    assert {p.name: p.read_bytes() for p in reports.iterdir()} == before


@pytest.mark.parametrize("table, enabled", [
    ("similarity", "Original, Translated"),  # no kind derived from the reference
    ("backtranslation", "Original, Translated, ShortSummary"),
], ids=["similarity", "backtranslation"])
def test_a_rerun_without_a_tables_kinds_drops_it(pt_run, tmp_path, runner, table, enabled):
    """A run of fewer kinds into the directory of a full one leaves no file of a table that lacks its kinds."""
    run_dir = tmp_path / "run"
    shutil.copytree(pt_run[0], run_dir)
    assert len(list((run_dir / "reports").glob(f"table_{table}.*"))) == 3
    conf = pt_fixture_config(tmp_path / "pt.conf", extra=f"enabled = {enabled}\n")
    result = runner.invoke(main, ["run", "--config", str(conf), "--run-dir", str(run_dir), "--offline"])
    assert result.exit_code == EXIT_OK, result.output
    assert list((run_dir / "reports").glob(f"table_{table}.*")) == []
    classification = (run_dir / "reports" / "table_classification.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in classification[1:]] == enabled.split(", ")


class TestProgram:
    """`python -m semsurf.cli`, as the console script runs it, behaves as `main` does under CliRunner."""

    @staticmethod
    def python(*args, env=os.environ):
        """`python args` in the environment `env` with this checkout's semsurf first on the path."""
        src = Path(classifier.__file__).resolve().parent.parent
        env = {**env, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize(
        "stage, extra, code",
        [("ingest", "", EXIT_OK), ("ingest", "train.learning_rte = 5", EXIT_USAGE), ("similarity", "", EXIT_DATA)],
        ids=["ok", "config error", "missing artifact"],
    )
    def test_exit_code_and_output_match_clirunner(self, tmp_path, runner, stage, extra, code):
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path), extra=extra)
        args = [stage, "--config", str(conf), "--run-dir", str(tmp_path / "run")]
        proc = self.python("-m", "semsurf.cli", *args)
        result = runner.invoke(main, args)
        assert proc.returncode == result.exit_code == code, proc.stderr
        assert (proc.stdout, proc.stderr) == (result.stdout, result.stderr)
        assert (proc.stdout if code == EXIT_OK else proc.stderr) != ""

    @pytest.mark.parametrize("stage, code", [("ingest", EXIT_OK), ("similarity", EXIT_DATA)])
    def test_entry_freezes_the_heap_on_its_way_out(self, tmp_path, stage, code):
        """What is frozen when the interpreter starts to exit is left out of its final collection."""
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        program = (
            "import atexit, gc\n"
            "from semsurf.cli import entry\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "entry()\n"
        )
        proc = self.python("-c", program, stage, "--config", str(conf), "--run-dir", str(tmp_path / "run"))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == "frozen True"

    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("4", "4")])
    def test_entry_runs_one_blas_thread_unless_told_otherwise(self, tmp_path, preset, threads):
        """numpy reads OPENBLAS_NUM_THREADS when it is imported, after entry() has set it where it was unset."""
        conf = tmp_path / "c.conf"
        write_config(conf, small_dataset(tmp_path))
        program = (
            "import atexit, os\n"
            "from semsurf.cli import entry\n"
            "atexit.register(lambda: print('threads', os.environ.get('OPENBLAS_NUM_THREADS')))\n"
            "entry()\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = self.python("-c", program, "ingest", "--config", str(conf), "--run-dir", str(tmp_path / "run"), env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"threads {threads}"

    def test_the_readme_lists_every_command(self):
        """README's command block shows `run`, then each stage of cli.STAGES, in table order."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        assert [line.split()[1] for line in block.splitlines()] == ["run", *(name for name, _ in STAGES)]
        assert sorted(main.commands) == sorted(["run", *(name for name, _ in STAGES)])

    def test_the_console_script_is_entry(self):
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n")[1].split("\n\n")[0]
        assert scripts.splitlines() == ['semsurf = "semsurf.cli:entry"']
