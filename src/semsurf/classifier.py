"""Embedding-based AD/Control classification.

A class-weighted logistic regression head trained by full-batch gradient
descent over provider embeddings, with stratified early-stopping validation,
k-fold cross-validation, fixed-split evaluation, and multi-seed paired runs.
The fold assignment for a given (dataset, seed) is shared across all
transformations of that dataset, so per-seed results are paired for the
Wilcoxon comparisons downstream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .corpus import Dataset, FoldAssignment, GROUP_AD, GROUP_CONTROL, fixed_split, split_folds
from .transform import TransformedCorpus

POSITIVE = GROUP_AD  # ties at score 0.5 resolve to the positive class


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinearHead:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)) or not math.isfinite(self.bias):
            raise TrainingError("non-finite head parameters")

    def scores(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.weights.shape[0]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {self.weights.shape[0]}")
        return _sigmoid(x @ self.weights + self.bias)


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 10
    early_stop_patience: int = 3
    learning_rate: float = 0.1
    l2: float = 1e-4
    validation_fraction: float = 0.2
    seed: int = 0
    class_weighting: bool = True

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (0.0 < self.validation_fraction < 0.5):
            raise ValueError("validation_fraction must be in (0, 0.5)")


@dataclass
class FoldResult:
    fold: int
    macro_f1: float
    acc_ad: float
    acc_c: float


@dataclass
class ClassificationRun:
    seed: int
    folds: list[FoldResult] = field(default_factory=list)

    @property
    def macro_f1(self) -> float:
        return float(np.mean([f.macro_f1 for f in self.folds]))

    @property
    def acc_ad(self) -> float:
        return float(np.mean([f.acc_ad for f in self.folds]))

    @property
    def acc_c(self) -> float:
        return float(np.mean([f.acc_c for f in self.folds]))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "macro_f1": self.macro_f1,
            "acc_ad": self.acc_ad,
            "acc_c": self.acc_c,
            "folds": [asdict(f) for f in self.folds],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassificationRun":
        return cls(d["seed"], [FoldResult(**f) for f in d["folds"]])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def class_weights(labels: list[str]) -> dict[str, float]:
    """Balanced heuristic: weight(c) = n_samples / (n_classes * count(c))."""
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    if len(counts) < 2:
        raise ValueError("class_weights requires at least two classes")
    n = len(labels)
    k = len(counts)
    return {c: n / (k * cnt) for c, cnt in counts.items()}


def weighted_loss_and_grad(
    w: np.ndarray,
    b: float,
    x: np.ndarray,
    y: np.ndarray,
    sample_weights: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Class-weighted binary cross-entropy with L2 penalty on the weights.

    Loss = sum_i cw_i * BCE_i / sum_i cw_i + l2 * ||w||^2 / 2.
    """
    z = x @ w + b
    # numerically stable log-loss: log(1+exp(-|z|)) + max(z,0) - z*y
    per_item = np.logaddexp(0.0, -np.abs(z)) + np.maximum(z, 0.0) - z * y
    wsum = sample_weights.sum()
    loss = float((sample_weights * per_item).sum() / wsum + l2 * (w @ w) / 2.0)
    p = _sigmoid(z)
    resid = sample_weights * (p - y) / wsum
    grad_w = x.T @ resid + l2 * w
    grad_b = float(resid.sum())
    return loss, grad_w, grad_b


def _stratified_holdout(y: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of validation rows, at least one per class when possible."""
    mask = np.zeros(len(y), dtype=bool)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        n_val = max(1, int(round(len(idx) * fraction)))
        if n_val >= len(idx):
            n_val = len(idx) - 1
        if n_val > 0:
            mask[rng.permutation(idx)[:n_val]] = True
    return mask


@np.errstate(over="ignore", invalid="ignore")  # a diverging loss raises TrainingError instead
def train(embeddings: np.ndarray, labels: list[str], cfg: TrainConfig) -> LinearHead:
    """Full-batch gradient descent with lr/sqrt(epoch) decay and early stopping
    on held-out validation loss. Deterministic for a fixed seed."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.array([1.0 if lab == POSITIVE else 0.0 for lab in labels])
    if len(set(labels)) < 2:
        raise TrainingError("training data must contain both classes")
    if cfg.class_weighting:
        cw = class_weights(labels)
        sw = np.array([cw[lab] for lab in labels])
    else:
        sw = np.ones(len(labels))

    rng = np.random.default_rng(cfg.seed)
    val_mask = _stratified_holdout(y, cfg.validation_fraction, rng)
    xt, yt, st = x[~val_mask], y[~val_mask], sw[~val_mask]
    xv, yv, sv = x[val_mask], y[val_mask], sw[val_mask]
    if len(set(yt)) < 2:
        # tiny folds can lose a class to the holdout; train on everything
        xt, yt, st = x, y, sw
        xv, yv, sv = x, y, sw

    w = np.zeros(x.shape[1])
    b = 0.0
    best = (math.inf, w.copy(), b)
    patience_left = cfg.early_stop_patience
    for epoch in range(1, cfg.max_epochs + 1):
        loss, gw, gb = weighted_loss_and_grad(w, b, xt, yt, st, cfg.l2)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}: {loss}")
        lr = cfg.learning_rate / math.sqrt(epoch)
        w -= lr * gw
        b -= lr * gb
        val_loss, _, _ = weighted_loss_and_grad(w, b, xv, yv, sv, cfg.l2)
        if val_loss < best[0] - 1e-12:
            best = (val_loss, w.copy(), b)
            patience_left = cfg.early_stop_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    return LinearHead(best[1], best[2])


def predict(head: LinearHead, embeddings: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Labels and raw sigmoid scores; score >= 0.5 classifies as AD."""
    scores = head.scores(np.asarray(embeddings, dtype=np.float64))
    labels = [POSITIVE if s >= 0.5 else GROUP_CONTROL for s in scores]
    return labels, scores


def macro_f1(pred: list[str], gold: list[str]) -> float:
    """Unweighted mean of per-class F1 over the classes present in gold."""
    if len(pred) != len(gold):
        raise ValueError("pred and gold length mismatch")
    classes = sorted(set(gold))
    if len(classes) < 2:
        raise ValueError("macro_f1 requires both classes in gold")
    f1s = []
    for cls in classes:
        tp = sum(1 for p, g in zip(pred, gold) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(pred, gold) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(pred, gold) if p != cls and g == cls)
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return sum(f1s) / len(f1s)


def per_class_accuracy(pred: list[str], gold: list[str]) -> tuple[float, float]:
    """(acc_AD, acc_C): recall of each class."""
    if len(pred) != len(gold):
        raise ValueError("pred and gold length mismatch")

    def recall(cls: str) -> float:
        idx = [i for i, g in enumerate(gold) if g == cls]
        if not idx:
            return float("nan")
        return sum(1 for i in idx if pred[i] == cls) / len(idx)

    return recall(GROUP_AD), recall(GROUP_CONTROL)


def _evaluate(
    fold: int,
    train_ids: list[str],
    test_ids: list[str],
    vectors: dict[str, np.ndarray],
    labels: dict[str, str],
    cfg: TrainConfig,
) -> FoldResult:
    """Train on train_ids, score the predictions for test_ids."""
    head = train(np.stack([vectors[i] for i in train_ids]), [labels[i] for i in train_ids], cfg)
    pred, _ = predict(head, np.stack([vectors[i] for i in test_ids]))
    gold = [labels[i] for i in test_ids]
    acc_ad, acc_c = per_class_accuracy(pred, gold)
    return FoldResult(fold, macro_f1(pred, gold), acc_ad, acc_c)


def _present(dataset: Dataset, corpus: TransformedCorpus) -> Dataset:
    """The transcripts that `corpus` has: in lenient mode every corpus lacks
    the same failed ids, so folds and splits drawn over these stay paired."""
    ids = set(corpus.ids())
    return replace(dataset, transcripts=tuple(t for t in dataset.transcripts if t.id in ids))


def run_seeds(master_seed: int, n_runs: int) -> list[int]:
    """Derived run seeds: a documented counter scheme over one master seed."""
    return [master_seed * 10007 + i for i in range(n_runs)]


def cross_validate(
    corpus: TransformedCorpus,
    dataset: Dataset,
    k: int,
    seeds: list[int],
    vectors: np.ndarray,
    cfg: TrainConfig,
) -> list[ClassificationRun]:
    """Per-seed stratified k-fold CV over `vectors`, the embeddings of the corpus's items in its order.

    The fold assignment depends only on (dataset, k, seed) and the ids the
    corpus has, which all corpora of a run share — not on the transformation —
    which is the pairing guarantee for signed-rank tests.
    """
    labels = {t.id: t.group for t in dataset.transcripts}
    by_id = dict(zip(corpus.ids(), vectors))
    present = _present(dataset, corpus)
    runs = []
    for seed in seeds:
        assignment: FoldAssignment = split_folds(present, k, seed)
        run = ClassificationRun(seed=seed)
        for fold in range(k):
            test_ids = [i for i in corpus.ids() if assignment.assignments[i] == fold]
            train_ids = [i for i in corpus.ids() if assignment.assignments[i] != fold]
            try:
                result = _evaluate(fold, train_ids, test_ids, by_id, labels, replace(cfg, seed=seed))
            except TrainingError as exc:
                raise TrainingError(f"seed {seed} fold {fold}: {exc}") from exc
            run.folds.append(result)
        runs.append(run)
    return runs


def fixed_split_evaluate(
    corpus: TransformedCorpus,
    dataset: Dataset,
    seeds: list[int],
    vectors: np.ndarray,
    cfg: TrainConfig,
) -> list[ClassificationRun]:
    """Train on the items tagged train, evaluate on those tagged test, per seed; `vectors` as in cross_validate."""
    train_ds, test_ds = fixed_split(_present(dataset, corpus))
    labels = {t.id: t.group for t in dataset.transcripts}
    by_id = dict(zip(corpus.ids(), vectors))
    train_ids = train_ds.ids()
    test_ids = test_ds.ids()
    return [
        ClassificationRun(seed, [_evaluate(0, train_ids, test_ids, by_id, labels, replace(cfg, seed=seed))])
        for seed in seeds
    ]
