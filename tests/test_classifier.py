import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import semsurf.classifier as classifier
from semsurf._pcg64 import Generator
from semsurf.classifier import (
    Rows,
    TrainConfig,
    TrainingError,
    _labels,
    _loss_and_grad,
    _penalty,
    _permutations,
    _sigmoid,
    _stratified_holdout,
    class_weights,
    evaluate_stack,
    macro_f1,
    per_class_accuracy,
    prepare,
    run_seeds,
    train_stack,
)
from semsurf.corpus import GROUP_AD, GROUP_CONTROL, Dataset, Transcript, load_dataset, partitions, protocol
from semsurf.providers import mock_embed
from semsurf.stattests import mean
from semsurf.transform import TransformationKind, TransformedCorpus

FIXTURES = Path(__file__).parent.parent / "fixtures"


def fold_on_every_row(labels, cfg, seed=0):
    """The prepared fold that trains and tests on every row of arrays labelled `labels`, with `seed`'s holdout."""
    ids = [str(i) for i in range(len(labels))]
    [(_, [fold])] = prepare(ids, dict(zip(ids, labels)), [(seed, [(ids, ids)])], cfg)
    return fold


def fit(x, labels, cfg, seed=0):
    """The weights and bias of the head that train_stack gives x, a stack of one kind, on all its rows, labelled
    `labels`, for `seed`'s holdout."""
    w, b = train_stack(x[None], fold_on_every_row(labels, cfg, seed), cfg)
    return w[0], b[0]


def scored(x, labels, cfg, seed=0):
    """The fold record that evaluate_stack gives x, a stack of one kind, trained and tested on all its rows."""
    [[run]] = evaluate_stack([x], [(seed, [fold_on_every_row(labels, cfg, seed)])], cfg)
    return run["folds"][0]


def loss_and_grad(w, b, x, y, sample_weights, l2):
    """The loss and gradient of train_stack's epoch for one kind's weights w and bias b on every row of x."""
    rows = Rows(np.arange(len(x)), y, sample_weights, sample_weights.sum())
    loss, gw, gb = _loss_and_grad(w[None], np.array([b]), x[None], rows, _penalty(w[None], l2), l2)
    return float(loss[0]), gw[0], float(gb[0])


def numpy_holdout(y, fraction, rng):
    """The holdout as it was drawn before semsurf computed numpy's stream itself: rng is np.random.default_rng(seed)."""
    mask = np.zeros(len(y), dtype=bool)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        n_val = max(1, int(round(len(idx) * fraction)))
        if n_val >= len(idx):
            n_val = len(idx) - 1
        if n_val > 0:
            mask[rng.permutation(idx)[:n_val]] = True
    return mask


# seed 0, the fixture runs' seeds 420294-420303, seeds of one to five 32-bit words, and random ones below 2**300
ORACLE_SEEDS = [
    0, 1, *range(420294, 420304), 2**32 - 1, 2**32, 2**64 + 7, 2**128, 2**128 + 12345,
    *(random.Random(bits).randrange(2**bits) for bits in (40, 100, 160, 220, 260, 300)),
]


class TestPermutationStream:
    """_pcg64.Generator draws what np.random.default_rng(seed).permutation draws, here against the installed numpy."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_matches_numpy(self, seed):
        for n in (0, 1, 2, 3, 7, 26, 64, 256, 1000):
            assert Generator(seed).permutation(n) == np.random.default_rng(seed).permutation(np.arange(n)).tolist(), n

    @pytest.mark.parametrize("seed", ORACLE_SEEDS[::4])
    def test_one_generator_draws_numpys_next_permutations(self, seed):
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for n in (5, 64, 3, 256, 2, 17):
            assert ours.permutation(n) == theirs.permutation(np.arange(n)).tolist(), n

    def test_pinned_without_numpy(self):
        """The first fixture run seed's stream, written out, so a numpy that changed its stream cannot move it."""
        assert Generator(420294).permutation(10) == [8, 6, 0, 9, 1, 5, 7, 3, 4, 2]

    def test_holdout_matches_numpys(self):
        # a class of one row holds none out and draws nothing, whichever class it is
        for y in ([0.0] + [1.0] * 9, [1.0] * 9 + [0.0], [0.0, 1.0], [1.0] * 6):
            y = np.array(y)
            expected = numpy_holdout(y, 0.2, np.random.default_rng(420294))
            assert np.array_equal(_stratified_holdout(y, 0.2, 420294), expected), y
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 120))
            y = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(float)
            fraction = float(rng.uniform(0.01, 0.49))
            seed = int(rng.integers(0, 2**40))
            expected = numpy_holdout(y, fraction, np.random.default_rng(seed))
            assert np.array_equal(_stratified_holdout(y, fraction, seed), expected), (n, fraction, seed)

    def test_folds_of_equal_class_sizes_share_the_draws(self):
        """The holdouts of two folds whose classes have the same sizes take the same positions of each class's
        rows, whichever rows those are, so the draws are reused."""
        y1 = np.array([0.0] * 12 + [1.0] * 5)
        y2 = np.array([1.0, 0.0] * 5 + [0.0] * 7)
        first, second = _stratified_holdout(y1, 0.2, 420294), _stratified_holdout(y2, 0.2, 420294)
        for cls in (0.0, 1.0):
            assert first[y1 == cls].tolist() == second[y2 == cls].tolist()
        assert _permutations(420294, (12, 5)) is _permutations(420294, (12, 5))


class TestClassWeights:
    def test_reference_imbalance(self):
        labels = [GROUP_AD] * 23 + [GROUP_CONTROL] * 116
        cw = class_weights(labels)
        assert cw[GROUP_AD] == pytest.approx(3.0217, abs=1e-3)
        assert cw[GROUP_CONTROL] == pytest.approx(0.5991, abs=1e-3)
        # the weighted sample count equals the raw sample count exactly
        assert cw[GROUP_AD] * 23 + cw[GROUP_CONTROL] * 116 == pytest.approx(139.0, abs=1e-12)

    def test_balanced_is_unit(self):
        labels = [GROUP_AD] * 78 + [GROUP_CONTROL] * 78
        cw = class_weights(labels)
        assert cw == {GROUP_AD: 1.0, GROUP_CONTROL: 1.0}

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            class_weights([GROUP_AD, GROUP_AD])


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        eps = 1e-6
        for _ in range(20):
            n, d = rng.integers(4, 20), rng.integers(2, 8)
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            if len(set(y)) < 2:
                y[0], y[1] = 0.0, 1.0
            sw = rng.uniform(0.5, 3.0, size=n)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = 0.01
            loss, gw, gb = loss_and_grad(w, b, x, y, sw, l2)
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                lp, _, _ = loss_and_grad(wp, b, x, y, sw, l2)
                lm, _, _ = loss_and_grad(wm, b, x, y, sw, l2)
                num = (lp - lm) / (2 * eps)
                assert abs(gw[j] - num) <= 1e-4 * max(1.0, abs(num)), (j, gw[j], num)
            lp, _, _ = loss_and_grad(w, b + eps, x, y, sw, l2)
            lm, _, _ = loss_and_grad(w, b - eps, x, y, sw, l2)
            num_b = (lp - lm) / (2 * eps)
            assert abs(gb - num_b) <= 1e-4 * max(1.0, abs(num_b))

    def test_loss_at_origin(self):
        # w=0, b=0: every item contributes log(2) regardless of weights
        x = np.ones((4, 3))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        sw = np.array([1.0, 2.0, 3.0, 4.0])
        loss, _, _ = loss_and_grad(np.zeros(3), 0.0, x, y, sw, 0.0)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)


class TestMetrics:
    def test_macro_f1_perfect(self):
        gold = [GROUP_AD, GROUP_CONTROL, GROUP_AD]
        assert macro_f1(gold, gold) == 1.0

    def test_macro_f1_hand_value(self):
        gold = [GROUP_AD, GROUP_AD, GROUP_CONTROL, GROUP_CONTROL]
        pred = [GROUP_AD, GROUP_CONTROL, GROUP_CONTROL, GROUP_CONTROL]
        # AD: tp=1 fp=0 fn=1 -> f1=2/3; C: tp=2 fp=1 fn=0 -> f1=4/5
        assert macro_f1(pred, gold) == pytest.approx((2 / 3 + 4 / 5) / 2, abs=1e-12)

    def test_macro_f1_requires_both_classes(self):
        with pytest.raises(ValueError):
            macro_f1([GROUP_AD], [GROUP_AD])

    def test_per_class_accuracy_is_recall(self):
        gold = [GROUP_AD, GROUP_AD, GROUP_CONTROL, GROUP_CONTROL]
        pred = [GROUP_AD, GROUP_CONTROL, GROUP_CONTROL, GROUP_CONTROL]
        acc_ad, acc_c = per_class_accuracy(pred, gold)
        assert acc_ad == 0.5 and acc_c == 1.0


def separable_data(n_per_class=20, d=4, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    x_ad = rng.normal(loc=gap / 2, size=(n_per_class, d))
    x_c = rng.normal(loc=-gap / 2, size=(n_per_class, d))
    x = np.vstack([x_ad, x_c])
    labels = [GROUP_AD] * n_per_class + [GROUP_CONTROL] * n_per_class
    return x, labels


class TestTraining:
    def test_separable_toy_perfect(self):
        x, labels = separable_data()
        assert scored(x, labels, TrainConfig(max_epochs=50, learning_rate=1.0))["macro_f1"] == 1.0

    def test_deterministic_per_seed(self):
        x, labels = separable_data()
        cfg = TrainConfig()
        w1, b1 = fit(x, labels, cfg, seed=3)
        w2, b2 = fit(x, labels, cfg, seed=3)
        assert np.array_equal(w1, w2) and b1 == b2

    def test_single_class_rejected(self):
        x = np.ones((4, 2))
        with pytest.raises(TrainingError):
            fit(x, [GROUP_AD] * 4, TrainConfig())

    def test_weighting_lifts_minority_recall(self):
        # 1:5 imbalance with overlapping classes; the weighted head must
        # recall strictly more of the minority class than the unweighted one
        rng = np.random.default_rng(11)
        n_min, n_maj, d = 12, 60, 6
        x = np.vstack(
            [rng.normal(loc=0.8, size=(n_min, d)), rng.normal(loc=-0.2, size=(n_maj, d))]
        )
        labels = [GROUP_AD] * n_min + [GROUP_CONTROL] * n_maj
        base_cfg = dict(max_epochs=30, learning_rate=1.0)
        rec_w = scored(x, labels, TrainConfig(**base_cfg, class_weighting=True))["acc_ad"]
        rec_u = scored(x, labels, TrainConfig(**base_cfg, class_weighting=False))["acc_ad"]
        assert rec_w > rec_u

    def test_early_stopping_restores_best(self):
        # huge learning rate diverges after the first steps; early stopping
        # must hand back finite, usable parameters
        x, labels = separable_data(gap=2.0)
        w, b = fit(x, labels, TrainConfig(max_epochs=40, learning_rate=50.0))
        assert np.all(np.isfinite(w)) and np.isfinite(b)

    def test_tie_at_half_is_ad(self):
        z = np.zeros(3)  # a zero head's score of every row: exactly 0.5
        scores = _sigmoid(z, -np.abs(z))
        assert _labels(scores.tolist()) == [GROUP_AD] * 3
        assert np.all(scores == 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=0.9)


def two_branch_sigmoid(z):
    """The sigmoid as it was computed before np.where: two boolean-mask branches."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@np.errstate(over="ignore", invalid="ignore")
def reference_train(embeddings, labels, cfg, seed):
    """The training loop as it was before the validation loss left out the
    gradient: (weights, bias) of the best epoch."""

    def loss_and_grad(w, b, x, y, sw, l2):
        z = x @ w + b
        per_item = np.logaddexp(0.0, -np.abs(z)) + np.maximum(z, 0.0) - z * y
        wsum = sw.sum()
        loss = float((sw * per_item).sum() / wsum + l2 * (w @ w) / 2.0)
        resid = sw * (two_branch_sigmoid(z) - y) / wsum
        return loss, x.T @ resid + l2 * w, float(resid.sum())

    x = np.asarray(embeddings, dtype=np.float64)
    y = np.array([1.0 if lab == GROUP_AD else 0.0 for lab in labels])
    if cfg.class_weighting:
        cw = class_weights(labels)
        sw = np.array([cw[lab] for lab in labels])
    else:
        sw = np.ones(len(labels))
    val_mask = _stratified_holdout(y, cfg.validation_fraction, seed)
    xt, yt, st = x[~val_mask], y[~val_mask], sw[~val_mask]
    xv, yv, sv = x[val_mask], y[val_mask], sw[val_mask]
    if len(set(yt)) < 2:
        xt, yt, st = x, y, sw
        xv, yv, sv = x, y, sw
    w = np.zeros(x.shape[1])
    b = 0.0
    best = (math.inf, w.copy(), b)
    patience_left = cfg.patience
    for epoch in range(1, cfg.max_epochs + 1):
        _, gw, gb = loss_and_grad(w, b, xt, yt, st, cfg.l2)
        lr = cfg.learning_rate / math.sqrt(epoch)
        w -= lr * gw
        b -= lr * gb
        val_loss, _, _ = loss_and_grad(w, b, xv, yv, sv, cfg.l2)
        if val_loss < best[0] - 1e-12:
            best = (val_loss, w.copy(), b)
            patience_left = cfg.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    return best[1], best[2]


def fixture_embeddings(name):
    rows = [json.loads(line) for line in (FIXTURES / name).read_text().splitlines()]
    return np.array([mock_embed(r["text"]) for r in rows]), [r["group"] for r in rows]


# (train settings, seed) of the reference comparisons
REFERENCE_SETTINGS = {
    "fixture settings": (TrainConfig(learning_rate=5.0), 420294),
    "long": (TrainConfig(learning_rate=5.0, max_epochs=40, patience=5), 7),
    "unweighted": (TrainConfig(learning_rate=0.5, class_weighting=False), 3),
    "large steps": (TrainConfig(learning_rate=50.0, max_epochs=30, l2=0.0), 1),
}


class TestReferenceLoop:
    @pytest.mark.parametrize(
        "cfg, seed, fixture",
        [
            (cfg, seed, fixture)
            for fixture in ("dogstory40.jsonl", "dogstory139.jsonl")
            for cfg, seed in REFERENCE_SETTINGS.values()
        ],
        ids=[*REFERENCE_SETTINGS, *(f"{name}, dogstory139" for name in REFERENCE_SETTINGS)],
    )
    def test_weights_equal_the_reference_bit_for_bit(self, cfg, seed, fixture):
        x, labels = fixture_embeddings(fixture)
        w, b = fit(x, labels, cfg, seed)
        weights, bias = reference_train(x, labels, cfg, seed)
        assert w.tobytes() == weights.tobytes()
        assert b.hex() == bias.hex()

    def test_sigmoid_equals_the_two_branch_formula(self):
        z = np.array([0.0, -0.0, 30.0, -30.0, 745.0, -745.0, 1e308, -1e308, np.nan])
        new, old = _sigmoid(z, -np.abs(z)), two_branch_sigmoid(z)  # a warning fails the test
        finite = ~np.isnan(z)
        assert new[finite].tobytes() == old[finite].tobytes()
        assert np.isnan(new[~finite]).all() and np.isnan(old[~finite]).all()
        assert new[6] == 1.0 and new[7] == 0.0 and new[5] == old[5] > 0.0


class TestSeeds:
    def test_run_seeds_scheme(self):
        assert run_seeds(42, 3) == [42 * 10007, 42 * 10007 + 1, 42 * 10007 + 2]
        assert len(set(run_seeds(1, 10)) & set(run_seeds(2, 10))) == 0


def mini_dataset(n_ad=8, n_c=16):
    rows = []
    for i in range(n_ad + n_c):
        group = GROUP_AD if i < n_ad else GROUP_CONTROL
        base = "short halting words dog" if group == GROUP_AD else (
            "the mother washes dishes while the boy reaches for the cookie jar"
        )
        rows.append(
            Transcript(f"m{i:02d}", f"{base} item {i}", group, "en")
        )
    return Dataset("mini", tuple(rows), "en")


def corpus_for(ds, kind=TransformationKind.ORIGINAL):
    prov = {} if kind is TransformationKind.ORIGINAL else {t.id: ("0" * 64,) for t in ds.transcripts}
    return TransformedCorpus(kind, tuple((t.id, t.text) for t in ds.transcripts), prov)


def vectors_for(corpus):
    """The mock embeddings of the corpus's texts, one row per item."""
    return np.array([mock_embed(text) for _, text in corpus.items])


def evaluate_corpus(corpus, labels, splits, cfg):
    """The runs that classify records for the corpus: its vectors, as a stack of one kind, over the prepared
    splits."""
    [runs] = evaluate_stack([vectors_for(corpus)], prepare(corpus.ids(), labels, splits, cfg), cfg)
    return runs


def labels_of(ds):
    return {t.id: t.group for t in ds.transcripts}


def splits_for(ds, k, seeds, ids):
    """prepare's splits, as stage_classify draws them: each seed's partitions over `ids`."""
    return [(seed, partitions(ds, k, seed, ids)) for seed in seeds]


def fixed_split_dataset():
    rows = []
    for i in range(24):
        group = GROUP_AD if i < 12 else GROUP_CONTROL
        base = "short dog words" if group == GROUP_AD else "the mother washes the dishes slowly"
        split = "train" if (i % 12) < 8 else "test"
        rows.append(Transcript(f"f{i:02d}", f"{base} item {i}", group, "en", split=split))
    return Dataset("fixed", tuple(rows), "en")


class TestCrossValidation:
    def test_fold_pairing_across_transformations(self):
        # the partitions of a seed depend only on (dataset, k, seed) and the
        # ids, which the corpora of two transformations share
        ds = mini_dataset()
        original, summary = corpus_for(ds), corpus_for(ds, TransformationKind.SHORT_SUMMARY)
        for seed in run_seeds(42, 3):
            a = partitions(ds, 4, seed, set(original.ids()))
            b = partitions(ds, 4, seed, set(summary.ids()))
            assert a == b

    def test_cross_validate_shapes(self):
        ds = mini_dataset()
        corpus = corpus_for(ds)
        seeds = run_seeds(1, 2)
        assert protocol(ds, 4) == "cv4"
        runs = evaluate_corpus(
            corpus, labels_of(ds), splits_for(ds, 4, seeds, set(corpus.ids())),
            TrainConfig(max_epochs=5, learning_rate=2.0),
        )
        assert [r["seed"] for r in runs] == seeds
        for run in runs:
            assert set(run) == {"seed", "macro_f1", "acc_ad", "acc_c", "folds"}
            assert [f["fold"] for f in run["folds"]] == [0, 1, 2, 3]
            assert 0.0 <= run["macro_f1"] <= 1.0
            for m in ("macro_f1", "acc_ad", "acc_c"):
                assert run[m] == mean([f[m] for f in run["folds"]])

    def test_cross_validate_deterministic(self):
        ds = mini_dataset()
        splits = splits_for(ds, 4, run_seeds(7, 2), set(ds.ids()))
        cfg = TrainConfig(max_epochs=5, learning_rate=2.0)
        r1 = evaluate_corpus(corpus_for(ds), labels_of(ds), splits, cfg)
        r2 = evaluate_corpus(corpus_for(ds), labels_of(ds), splits, cfg)
        assert r1 == r2

    def test_fixed_split_evaluate(self):
        ds = fixed_split_dataset()
        corpus = corpus_for(ds)
        assert protocol(ds, 4) == "fixed_split"
        runs = evaluate_corpus(
            corpus, labels_of(ds), splits_for(ds, 4, run_seeds(1, 3), set(corpus.ids())),
            TrainConfig(max_epochs=10, learning_rate=5.0),
        )
        assert len(runs) == 3
        assert all([f["fold"] for f in r["folds"]] == [0] for r in runs)

    def test_fixed_split_uses_the_corpus_ids(self):
        # a lenient run drops ids from every corpus but not from the dataset
        ds = fixed_split_dataset()
        dropped = {"f00", "f08"}  # one train id, one test id
        assert {t.split for t in ds.transcripts if t.id in dropped} == {"train", "test"}
        rest = Dataset("fixed", tuple(t for t in ds.transcripts if t.id not in dropped), "en")
        kept, seeds = set(corpus_for(rest).ids()), run_seeds(1, 2)
        splits = splits_for(ds, 4, seeds, kept)
        assert splits == splits_for(rest, 4, seeds, set(rest.ids()))
        corpus, cfg = corpus_for(rest), TrainConfig(learning_rate=5.0)
        runs = evaluate_corpus(corpus, labels_of(ds), splits, cfg)
        expected = evaluate_corpus(corpus, labels_of(rest), splits_for(rest, 4, seeds, set(rest.ids())), cfg)
        assert runs == expected


# -- the per-kind evaluation loop that prepare and evaluate_stack replaced, kept as their reference: it rebuilt
# every (seed, fold)'s labels, class weights and holdout for each kind, and stacked its rows from a dict


def reference_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_loss(z, w, y, sample_weights, l2):
    per_item = np.logaddexp(0.0, -np.abs(z)) + np.maximum(z, 0.0) - z * y
    return float((sample_weights * per_item).sum() / sample_weights.sum() + l2 * (w @ w) / 2.0)


def reference_loss_and_grad(w, b, x, y, sample_weights, l2):
    z = x @ w + b
    loss = reference_loss(z, w, y, sample_weights, l2)
    p = reference_sigmoid(z)
    resid = sample_weights * (p - y) / sample_weights.sum()
    grad_w = x.T @ resid + l2 * w
    grad_b = float(resid.sum())
    return loss, grad_w, grad_b


@np.errstate(over="ignore", invalid="ignore")
def reference_head(embeddings, labels, cfg, seed):
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.array([1.0 if lab == GROUP_AD else 0.0 for lab in labels])
    if len(set(labels)) < 2:
        raise TrainingError("training data must contain both classes")
    if cfg.class_weighting:
        cw = class_weights(labels)
        sw = np.array([cw[lab] for lab in labels])
    else:
        sw = np.ones(len(labels))

    val_mask = numpy_holdout(y, cfg.validation_fraction, np.random.default_rng(seed))
    xt, yt, st = x[~val_mask], y[~val_mask], sw[~val_mask]
    xv, yv, sv = x[val_mask], y[val_mask], sw[val_mask]
    if len(set(yt)) < 2:
        xt, yt, st = x, y, sw
        xv, yv, sv = x, y, sw

    w = np.zeros(x.shape[1])
    b = 0.0
    best = (math.inf, w.copy(), b)
    patience_left = cfg.patience
    for epoch in range(1, cfg.max_epochs + 1):
        loss, gw, gb = reference_loss_and_grad(w, b, xt, yt, st, cfg.l2)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}: {loss}")
        lr = cfg.learning_rate / math.sqrt(epoch)
        w -= lr * gw
        b -= lr * gb
        val_loss = reference_loss(xv @ w + b, w, yv, sv, cfg.l2)
        if val_loss < best[0] - 1e-12:
            best = (val_loss, w.copy(), b)
            patience_left = cfg.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    return best[1], best[2]


def reference_fold(fold, train_ids, test_ids, vectors, labels, cfg, seed):
    w, b = reference_head(np.stack([vectors[i] for i in train_ids]), [labels[i] for i in train_ids], cfg, seed)
    scores = reference_sigmoid(np.stack([vectors[i] for i in test_ids]) @ w + b)
    pred = [GROUP_AD if s >= 0.5 else GROUP_CONTROL for s in scores]
    gold = [labels[i] for i in test_ids]
    acc_ad, acc_c = per_class_accuracy(pred, gold)
    return {"fold": fold, "macro_f1": macro_f1(pred, gold), "acc_ad": acc_ad, "acc_c": acc_c}


def reference_evaluate(vectors_by_id, labels, splits, cfg):
    runs = []
    for seed, seed_folds in splits:
        folds = []
        for fold, (train_ids, test_ids) in enumerate(seed_folds):
            try:
                folds.append(reference_fold(fold, train_ids, test_ids, vectors_by_id, labels, cfg, seed))
            except TrainingError as exc:
                raise TrainingError(f"seed {seed} fold {fold}: {exc}") from exc
        means = {m: mean([f[m] for f in folds]) for m in ("macro_f1", "acc_ad", "acc_c")}
        runs.append({"seed": seed, **means, "folds": folds})
    return runs


def kinds_of(ds):
    """Corpora of three kinds for the dataset: its texts, their first sentences and their words reversed."""
    texts = {
        TransformationKind.ORIGINAL: [t.text for t in ds.transcripts],
        TransformationKind.SHORT_SUMMARY: [t.text.split(". ")[0] for t in ds.transcripts],
        TransformationKind.STORYBOARD: [" ".join(reversed(t.text.split())) for t in ds.transcripts],
    }
    prov = {i: ("0" * 64,) for i in ds.ids()}
    return {kind: TransformedCorpus(kind, tuple(zip(ds.ids(), kind_texts)), prov) for kind, kind_texts in texts.items()}


class TestTrainStack:
    @pytest.mark.parametrize("dim", [3, 7, 256])
    def test_a_kinds_heads_are_the_same_bits_in_any_chunk(self, dim):
        # narrow rows pin how a fold's rows are gathered: OpenBLAS sums the product of rows of another stride than
        # one kind's alone in another order
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(4, 26, dim)) * np.array([0.3, 1.0, 2.0, 5.0])[:, None, None]
        ids = [str(i) for i in range(26)]
        labels = {i: GROUP_AD if int(i) % 3 == 0 else GROUP_CONTROL for i in ids}
        cfg = TrainConfig(learning_rate=5.0, max_epochs=40)
        [(_, folds)] = prepare(ids, labels, [(1, [(ids[:20], ids[20:]), (ids[6:], ids[:6])])], cfg)
        for fold in folds:
            w, b = train_stack(x, fold, cfg)
            # the 4 kinds in chunks of 1, as classify trains large arrays, and in chunks of 3 and 1
            for size in (1, 3):
                chunks = [train_stack(x[start:start + size], fold, cfg) for start in range(0, len(x), size)]
                chunk_w, chunk_b = (np.concatenate(part) for part in zip(*chunks))
                assert chunk_w.tobytes() == w.tobytes() and chunk_b.tobytes() == b.tobytes(), size


def epochs_of(x, fold, cfg):
    """The epochs that train_stack runs on x, a stack of one kind, for the fold."""
    epochs = []

    def counting(*args):
        epochs.append(1)
        return _loss_and_grad(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "_loss_and_grad", counting)
        train_stack(x[None], fold, cfg)
    return len(epochs)


class TestReferenceEvaluate:
    """Every kind's runs, prepared once per (seed, fold), equal the per-kind loop's byte for byte, whether the kinds
    train one after another or as one stack."""

    def check(self, ds, corpora, k, cfg, vectors=None):
        """The check on the corpora's mock embeddings, or on `vectors`, one array per corpus; the prepared folds."""
        ids = next(iter(corpora.values())).ids()
        splits = splits_for(ds, k, run_seeds(42, 10), set(ids))
        folds = prepare(ids, labels_of(ds), splits, cfg)
        vectors = vectors or [vectors_for(corpus) for corpus in corpora.values()]
        expected = [reference_evaluate(dict(zip(ids, x)), labels_of(ds), splits, cfg) for x in vectors]
        for kind, x, kind_expected in zip(corpora, vectors, expected):
            assert json.dumps(evaluate_stack([x], folds, cfg)) == json.dumps([kind_expected]), kind
        assert json.dumps(evaluate_stack(vectors, folds, cfg)) == json.dumps(expected)
        return folds

    def test_dogstory40_cv(self):
        ds = load_dataset(FIXTURES / "dogstory40.jsonl")
        assert protocol(ds, 5) == "cv5"
        self.check(ds, kinds_of(ds), 5, TrainConfig(learning_rate=5.0))

    def test_adress24_fixed_split(self):
        ds = load_dataset(FIXTURES / "adress24.jsonl")
        assert protocol(ds, 5) == "fixed_split"
        self.check(ds, kinds_of(ds), 5, TrainConfig(learning_rate=5.0))

    def test_lenient_subset_of_ids(self):
        # a lenient run drops the ids of failed items from every corpus, not from the dataset
        ds = load_dataset(FIXTURES / "dogstory40.jsonl")
        dropped = {ds.transcripts[i].id for i in (0, 7, 13, 38)}
        corpora = {
            kind: TransformedCorpus(kind, tuple(it for it in corpus.items if it[0] not in dropped), corpus.provenance)
            for kind, corpus in kinds_of(ds).items()
        }
        self.check(ds, corpora, 5, TrainConfig(learning_rate=5.0, max_epochs=20, class_weighting=False))

    def test_kinds_that_stop_at_different_epochs(self):
        # the stack keeps stepping a kind that has stopped until the last kind stops
        ds = load_dataset(FIXTURES / "dogstory40.jsonl")
        corpora, cfg = kinds_of(ds), TrainConfig(learning_rate=5.0, patience=1, max_epochs=40)
        folds = self.check(ds, corpora, 5, cfg)
        vectors = [vectors_for(corpus) for corpus in corpora.values()]
        epochs = [[epochs_of(x, fold, cfg) for x in vectors] for _, seed_folds in folds for fold in seed_folds]
        assert sum(len(set(fold_epochs)) > 1 for fold_epochs in epochs) >= len(epochs) // 2

    def test_a_kind_that_never_improves_keeps_the_zero_head(self):
        # Storyboard's vectors, scaled by 1e200, take the first step's validation loss past the float range, and
        # with a patience of 1 that kind stops there with the head it started from
        ds = load_dataset(FIXTURES / "dogstory40.jsonl")
        corpora, cfg = kinds_of(ds), TrainConfig(learning_rate=5.0, patience=1)
        vectors = [vectors_for(corpus) for corpus in corpora.values()]
        vectors[2] = vectors[2] * 1e200
        folds = self.check(ds, corpora, 5, cfg, vectors)
        for _, seed_folds in folds:
            for fold in seed_folds:
                w, b = train_stack(np.stack(vectors), fold, cfg)
                assert not w[2].any() and b[2] == 0.0
                assert w[:2].any(axis=1).all() and b[:2].all()  # the other kinds trained
                for x, kind_w, kind_b in zip(vectors, w, b):
                    [alone_w], [alone_b] = train_stack(x[None], fold, cfg)
                    assert alone_w.tobytes() == kind_w.tobytes() and alone_b == kind_b
