import numpy as np
import pytest

from semsurf.classifier import (
    LinearHead,
    TrainConfig,
    TrainingError,
    class_weights,
    cross_validate,
    fixed_split_evaluate,
    macro_f1,
    per_class_accuracy,
    predict,
    run_seeds,
    train,
    weighted_loss_and_grad,
)
from semsurf.corpus import GROUP_AD, GROUP_CONTROL, Dataset, Transcript, split_folds
from semsurf.providers import mock_embed
from semsurf.transform import TransformationKind, TransformedCorpus


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
            loss, gw, gb = weighted_loss_and_grad(w, b, x, y, sw, l2)
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                lp, _, _ = weighted_loss_and_grad(wp, b, x, y, sw, l2)
                lm, _, _ = weighted_loss_and_grad(wm, b, x, y, sw, l2)
                num = (lp - lm) / (2 * eps)
                assert abs(gw[j] - num) <= 1e-4 * max(1.0, abs(num)), (j, gw[j], num)
            lp, _, _ = weighted_loss_and_grad(w, b + eps, x, y, sw, l2)
            lm, _, _ = weighted_loss_and_grad(w, b - eps, x, y, sw, l2)
            num_b = (lp - lm) / (2 * eps)
            assert abs(gb - num_b) <= 1e-4 * max(1.0, abs(num_b))

    def test_loss_at_origin(self):
        # w=0, b=0: every item contributes log(2) regardless of weights
        x = np.ones((4, 3))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        sw = np.array([1.0, 2.0, 3.0, 4.0])
        loss, _, _ = weighted_loss_and_grad(np.zeros(3), 0.0, x, y, sw, 0.0)
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
        head = train(x, labels, TrainConfig(max_epochs=50, learning_rate=1.0, seed=0))
        pred, _ = predict(head, x)
        assert macro_f1(pred, labels) == 1.0

    def test_deterministic_per_seed(self):
        x, labels = separable_data()
        cfg = TrainConfig(seed=3)
        h1 = train(x, labels, cfg)
        h2 = train(x, labels, cfg)
        assert np.array_equal(h1.weights, h2.weights) and h1.bias == h2.bias

    def test_single_class_rejected(self):
        x = np.ones((4, 2))
        with pytest.raises(TrainingError):
            train(x, [GROUP_AD] * 4, TrainConfig())

    def test_weighting_lifts_minority_recall(self):
        # 1:5 imbalance with overlapping classes; the weighted head must
        # recall strictly more of the minority class than the unweighted one
        rng = np.random.default_rng(11)
        n_min, n_maj, d = 12, 60, 6
        x = np.vstack(
            [rng.normal(loc=0.8, size=(n_min, d)), rng.normal(loc=-0.2, size=(n_maj, d))]
        )
        labels = [GROUP_AD] * n_min + [GROUP_CONTROL] * n_maj
        base_cfg = dict(max_epochs=30, learning_rate=1.0, seed=0)
        weighted = train(x, labels, TrainConfig(**base_cfg, class_weighting=True))
        unweighted = train(x, labels, TrainConfig(**base_cfg, class_weighting=False))
        rec_w = per_class_accuracy(predict(weighted, x)[0], labels)[0]
        rec_u = per_class_accuracy(predict(unweighted, x)[0], labels)[0]
        assert rec_w > rec_u

    def test_early_stopping_restores_best(self):
        # huge learning rate diverges after the first steps; early stopping
        # must hand back finite, usable parameters
        x, labels = separable_data(gap=2.0)
        head = train(x, labels, TrainConfig(max_epochs=40, learning_rate=50.0, seed=0))
        assert np.all(np.isfinite(head.weights))

    def test_tie_at_half_is_ad(self):
        head = LinearHead(np.zeros(2), 0.0)  # every score is exactly 0.5
        pred, scores = predict(head, np.ones((3, 2)))
        assert pred == [GROUP_AD] * 3
        assert np.all(scores == 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=0.9)


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
    """The mock embeddings of the corpus's texts, one row per item in its order."""
    return np.array([mock_embed(text).values for _, text in corpus.items])


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
        # fold assignment depends only on (dataset, k, seed)
        ds = mini_dataset()
        for seed in run_seeds(42, 3):
            a = split_folds(ds, 4, seed)
            b = split_folds(ds, 4, seed)
            assert a == b

    def test_cross_validate_shapes(self):
        ds = mini_dataset()
        corpus = corpus_for(ds)
        runs = cross_validate(
            corpus, ds, k=4, seeds=run_seeds(1, 2), vectors=vectors_for(corpus),
            cfg=TrainConfig(max_epochs=5, learning_rate=2.0),
        )
        assert len(runs) == 2
        for run in runs:
            assert len(run.folds) == 4
            assert 0.0 <= run.macro_f1 <= 1.0
            d = run.to_dict()
            assert set(d) == {"seed", "macro_f1", "acc_ad", "acc_c", "folds"}

    def test_cross_validate_deterministic(self):
        ds = mini_dataset()
        kw = dict(k=4, seeds=run_seeds(7, 2), vectors=vectors_for(corpus_for(ds)),
                  cfg=TrainConfig(max_epochs=5, learning_rate=2.0))
        r1 = cross_validate(corpus_for(ds), ds, **kw)
        r2 = cross_validate(corpus_for(ds), ds, **kw)
        assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]

    def test_fixed_split_evaluate(self):
        ds = fixed_split_dataset()
        corpus = corpus_for(ds)
        runs = fixed_split_evaluate(
            corpus, ds, seeds=run_seeds(1, 3), vectors=vectors_for(corpus),
            cfg=TrainConfig(max_epochs=10, learning_rate=5.0),
        )
        assert len(runs) == 3
        assert all(len(r.folds) == 1 for r in runs)

    def test_fixed_split_uses_the_corpus_ids(self):
        # a lenient run drops ids from every corpus but not from the dataset
        ds = fixed_split_dataset()
        dropped = {"f00", "f08"}  # one train id, one test id
        assert {t.split for t in ds.transcripts if t.id in dropped} == {"train", "test"}
        rest = Dataset("fixed", tuple(t for t in ds.transcripts if t.id not in dropped), "en")
        kw = dict(seeds=run_seeds(1, 2), vectors=vectors_for(corpus_for(rest)), cfg=TrainConfig(learning_rate=5.0))
        runs = fixed_split_evaluate(corpus_for(rest), ds, **kw)
        expected = fixed_split_evaluate(corpus_for(rest), rest, **kw)
        assert [r.to_dict() for r in runs] == [r.to_dict() for r in expected]
