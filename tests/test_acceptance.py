"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from semsurf.classifier import TrainConfig, class_weights
from semsurf.cli import EXIT_OK, main
from semsurf.corpus import GROUP_AD, GROUP_CONTROL, load_dataset, partitions
from semsurf.stattests import pearson, welch_t, wilcoxon_signed_rank
from semsurf.textmetrics import bleu, chrf
from semsurf.transform import DEFAULT_PROMPTS
from tests.test_classifier import loss_and_grad, scored
from tests.test_stattests import brute_force_wilcoxon_p
from tests.test_textmetrics import oracle_bleu, oracle_chrf, random_sentence

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def report(number, name, ok):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {number}: {name}"


def test_criterion_1_pearson_reproduction():
    start = time.monotonic()
    ok = True
    dog = pearson(
        [0.69, 0.74, 0.76, 0.68, 0.39],
        [0.499, 0.547, 0.647, 0.662, 0.523],
    )
    ok &= abs(dog.statistic - 0.415) <= 0.005
    ok &= abs(dog.p_value - 0.488) <= 0.01
    ok &= dog.df == 3
    adress = pearson(
        [0.60, 0.59, 0.67, 0.66, 0.45],
        [0.695, 0.668, 0.702, 0.694, 0.527],
    )
    ok &= abs(adress.statistic - 0.953) <= 0.005
    ok &= abs(adress.p_value - 0.012) <= 0.005
    ok &= adress.df == 3
    ok &= (time.monotonic() - start) < 1.0
    report(1, "Pearson reproduction from reference summary statistics", ok)


def test_criterion_2_bleu_chrf_oracles():
    start = time.monotonic()
    ok = True
    rng = random.Random(2024)
    for _ in range(100):
        c = random_sentence(rng)
        r = random_sentence(rng)
        ok &= abs(bleu(c, r) - oracle_bleu(c, r)) <= 1e-9
        ok &= abs(chrf(c, r) - oracle_chrf(c, r)) <= 1e-9
    ok &= bleu("quick", "quickly") == 0.0
    ok &= chrf("quick", "quickly") > 0.0
    ok &= (time.monotonic() - start) < 5.0
    report(2, "BLEU/chrF match brute-force oracles; quick/quickly boundary case", ok)


def test_criterion_3_wilcoxon_exactness():
    start = time.monotonic()
    ok = True
    rng = random.Random(99)
    done = 0
    while done < 50:
        n = rng.randint(3, 12)
        d = [rng.uniform(-5, 5) for _ in range(n)]
        if len({abs(x) for x in d}) != n or any(x == 0 for x in d):
            continue
        res = wilcoxon_signed_rank(d, [0.0] * n)
        ok &= res.method == "wilcoxon_exact"
        ok &= abs(res.p_value - brute_force_wilcoxon_p(d)) <= 1e-12
        done += 1
    all_pos = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 1, 1, 1, 1])
    ok &= all_pos.p_value == 0.0625
    ok &= (time.monotonic() - start) < 10.0
    report(3, "Wilcoxon exact branch equals full 2^n enumeration", ok)


def test_criterion_4_welch_correctness():
    ok = True
    # frozen one-time reference-oracle evaluation
    res = welch_t([1, 2, 3, 4], [2, 4, 6, 8])
    ok &= abs(res.statistic - (-1.7320508075688772)) <= 1e-6
    ok &= abs(res.df - 4.411764705882353) <= 1e-6
    ok &= abs(res.p_value - 0.15158050484530383) <= 1e-6
    # equal variance, equal n: Welch df collapses to the Student df
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [7.0, 8.0, 9.0, 10.0, 11.0]
    ok &= abs(welch_t(a, b).df - 8.0) <= 1e-9
    report(4, "Welch matches committed oracle fixture; Student reduction", ok)


def test_criterion_5_class_weight_identity():
    ok = True
    cw = class_weights([GROUP_AD] * 23 + [GROUP_CONTROL] * 116)
    ok &= abs(cw[GROUP_AD] - 3.0217) <= 1e-3
    ok &= abs(cw[GROUP_CONTROL] - 0.5991) <= 1e-3
    ok &= cw[GROUP_AD] * 23 + cw[GROUP_CONTROL] * 116 == 139.0
    balanced = class_weights([GROUP_AD] * 78 + [GROUP_CONTROL] * 78)
    ok &= balanced == {GROUP_AD: 1.0, GROUP_CONTROL: 1.0}
    report(5, "Class-weight identity for (23,116) and (78,78)", ok)


def test_criterion_6_classifier_properties():
    start = time.monotonic()
    ok = True
    # (a) analytic gradient vs central finite differences
    rng = np.random.default_rng(6)
    eps = 1e-6
    for _ in range(20):
        n, d = int(rng.integers(4, 20)), int(rng.integers(2, 8))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        if len(set(y)) < 2:
            y[0], y[1] = 0.0, 1.0
        sw = rng.uniform(0.5, 3.0, size=n)
        w = rng.normal(size=d)
        b = float(rng.normal())
        _, gw, gb = loss_and_grad(w, b, x, y, sw, 0.01)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            lp, _, _ = loss_and_grad(wp, b, x, y, sw, 0.01)
            lm, _, _ = loss_and_grad(wm, b, x, y, sw, 0.01)
            num = (lp - lm) / (2 * eps)
            ok &= abs(gw[j] - num) <= 1e-4 * max(1.0, abs(num))
        lp, _, _ = loss_and_grad(w, b + eps, x, y, sw, 0.01)
        lm, _, _ = loss_and_grad(w, b - eps, x, y, sw, 0.01)
        num_b = (lp - lm) / (2 * eps)
        ok &= abs(gb - num_b) <= 1e-4 * max(1.0, abs(num_b))

    # (b) separable toy reaches macro-F1 = 1.0
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(3.0, size=(20, 4)), rng.normal(-3.0, size=(20, 4))])
    labels = [GROUP_AD] * 20 + [GROUP_CONTROL] * 20
    ok &= scored(x, labels, TrainConfig(max_epochs=50, learning_rate=1.0))["macro_f1"] == 1.0

    # (c) 1:5 imbalance: strictly higher minority recall with weighting
    rng = np.random.default_rng(11)
    x = np.vstack([rng.normal(0.8, size=(12, 6)), rng.normal(-0.2, size=(60, 6))])
    labels = [GROUP_AD] * 12 + [GROUP_CONTROL] * 60
    base = dict(max_epochs=30, learning_rate=1.0)
    rec_w = scored(x, labels, TrainConfig(**base, class_weighting=True))["acc_ad"]
    rec_u = scored(x, labels, TrainConfig(**base, class_weighting=False))["acc_ad"]
    ok &= rec_w > rec_u
    ok &= (time.monotonic() - start) < 30.0
    report(6, "Classifier gradient, separable toy, imbalanced-recall properties", ok)


ALL_KINDS = [
    "Original",
    "Translated",
    "ShortSummary",
    "MediumSummary",
    "LongSummary",
    "Storyboard",
    "ImageDescription",
    "BackTranslated",
]


def _full_run(run_dir: Path) -> None:
    # the shipped config addresses the dataset relative to a runs/<name>
    # directory under the repository root; pin it to the absolute fixture
    # path so the run directory can live anywhere
    lines = []
    for line in (FIXTURES / "run_mock_pt.conf").read_text().splitlines():
        if line.split("=")[0].strip() == "dataset":
            line = f"dataset = {FIXTURES / 'dogstory40.jsonl'}"
        lines.append(line)
    config = run_dir.parent / f"{run_dir.name}.conf"
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    config.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(
        main,
        ["run", "--config", str(config), "--run-dir", str(run_dir), "--offline"],
    )
    assert result.exit_code == EXIT_OK, result.output


def test_criterion_7_protocol_fidelity(tmp_path):
    start = time.monotonic()
    ok = True
    runs_root = tmp_path / "runs"
    d1 = runs_root / "a"
    d2 = runs_root / "b"
    _full_run(d1)
    _full_run(d2)

    # (a) all eight kinds, ids preserved in source order
    manifest = json.loads((d1 / "transformed" / "manifest.json").read_text())
    ok &= sorted(manifest["kinds"]) == sorted(ALL_KINDS)
    source_ids = [
        json.loads(line)["id"] for line in (d1 / "dataset.jsonl").read_text().splitlines()
    ]
    for kind in ALL_KINDS:
        ids = [
            json.loads(line)["id"]
            for line in (d1 / "transformed" / f"{kind}.jsonl").read_text().splitlines()
        ]
        ok &= ids == source_ids

    # (b) prompt assemblies byte-identical to the shipped defaults
    ok &= manifest["prompt_overrides"] == []
    for kind, prompt in DEFAULT_PROMPTS.items():
        ok &= manifest["prompts"][kind.value] == prompt

    # (c) fold pairing: the partitions are a function of (dataset, k, seed)
    # and the kept ids only, so two independently loaded dataset objects —
    # standing in for two runs of `semsurf classify` — agree fold for fold
    ds_a = load_dataset(d1 / "dataset.jsonl", "jsonl", name="dogstory40")
    ds_b = load_dataset(d2 / "dataset.jsonl", "jsonl", name="dogstory40")
    groups = {t.id: t.group for t in ds_a.transcripts}
    cls = json.loads((d1 / "classification.json").read_text())
    for seed in cls["seeds"]:
        parts = partitions(ds_a, 5, seed, set(source_ids))
        ok &= parts == partitions(ds_b, 5, seed, set(source_ids))
        sizes = [len(test) for _, test in parts]
        ok &= len(parts) == 5 and max(sizes) - min(sizes) <= 1
        for _, test in parts:
            n_ad = sum(1 for i in test if groups[i] == "AD")
            ok &= n_ad == 2  # 10 AD over 5 folds, stratified
    ok &= cls["protocol"] == "cv5"
    ok &= all(len(runs) == len(cls["seeds"]) for runs in cls["runs"].values())

    # (d) byte-identical reports across the two runs
    names = sorted(p.name for p in (d1 / "reports").iterdir())
    ok &= names == sorted(p.name for p in (d2 / "reports").iterdir())
    for name in names:
        ok &= (d1 / "reports" / name).read_bytes() == (d2 / "reports" / name).read_bytes()

    # offline run: zero network calls
    run_manifest = json.loads((d1 / "run_manifest.json").read_text())
    ok &= run_manifest["network_calls"] == 0

    ok &= (time.monotonic() - start) < 120.0
    report(7, "Full offline fixture run: kinds, prompts, pairing, determinism", ok)


def test_criterion_8_golden_file_stability(tmp_path):
    """Published absolute table values are out of reach at desk scale; the
    covered surface is the property suite plus golden-file stability of the
    fixture run against committed snapshots when present."""
    ok = True
    run_dir = tmp_path / "golden"
    _full_run(run_dir)
    golden_dir = ROOT / "tests" / "golden"
    produced = {
        p.name: p.read_text() for p in (run_dir / "reports").glob("table_*.md")
    }
    ok &= len(produced) >= 4
    if golden_dir.exists():
        for name, text in sorted(produced.items()):
            golden = golden_dir / name
            ok &= golden.exists() and golden.read_text() == text
    report(8, "Golden-file stability of the fixture run (property-suite fallback)", ok)
