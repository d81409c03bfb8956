"""Embedding-based AD/Control classification.

A class-weighted logistic regression head trained by full-batch gradient
descent over provider embeddings, with stratified early-stopping validation,
evaluated per seed over the (train ids, test ids) folds it is given: the k
folds of cross-validation, or the one fold of a fixed split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .corpus import GROUP_AD, GROUP_CONTROL, DataError

POSITIVE = GROUP_AD  # ties at score 0.5 resolve to the positive class


class TrainingError(DataError):
    """The training rows of a fold cannot train a head."""


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) <= 1 never overflows: 1/(1+e) where z >= 0, e/(1+e) elsewhere (nan included)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    """Class-weighted binary cross-entropy with L2 penalty on the weights, and its gradient.

    Loss = sum_i cw_i * BCE_i / sum_i cw_i + l2 * ||w||^2 / 2.
    """
    z = x @ w + b
    loss = _loss(z, w, y, sample_weights, l2)
    p = _sigmoid(z)
    resid = sample_weights * (p - y) / sample_weights.sum()
    grad_w = x.T @ resid + l2 * w
    grad_b = float(resid.sum())
    return loss, grad_w, grad_b


def _loss(z: np.ndarray, w: np.ndarray, y: np.ndarray, sample_weights: np.ndarray, l2: float) -> float:
    """weighted_loss_and_grad's loss, from the scores z = x @ w + b."""
    # numerically stable log-loss: log(1+exp(-|z|)) + max(z,0) - z*y
    per_item = np.logaddexp(0.0, -np.abs(z)) + np.maximum(z, 0.0) - z * y
    return float((sample_weights * per_item).sum() / sample_weights.sum() + l2 * (w @ w) / 2.0)


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
    patience_left = cfg.patience
    for epoch in range(1, cfg.max_epochs + 1):
        loss, gw, gb = weighted_loss_and_grad(w, b, xt, yt, st, cfg.l2)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}: {loss}")
        lr = cfg.learning_rate / math.sqrt(epoch)
        w -= lr * gw
        b -= lr * gb
        val_loss = _loss(xv @ w + b, w, yv, sv, cfg.l2)
        if val_loss < best[0] - 1e-12:
            best = (val_loss, w.copy(), b)
            patience_left = cfg.patience
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
) -> dict:
    """Train on train_ids, score the predictions for test_ids: the fold's classification.json record."""
    head = train(np.stack([vectors[i] for i in train_ids]), [labels[i] for i in train_ids], cfg)
    pred, _ = predict(head, np.stack([vectors[i] for i in test_ids]))
    gold = [labels[i] for i in test_ids]
    acc_ad, acc_c = per_class_accuracy(pred, gold)
    return {"fold": fold, "macro_f1": macro_f1(pred, gold), "acc_ad": acc_ad, "acc_c": acc_c}


def run_seeds(master_seed: int, n_runs: int) -> list[int]:
    """Derived run seeds: a documented counter scheme over one master seed."""
    return [master_seed * 10007 + i for i in range(n_runs)]


def evaluate(
    vectors_by_id: dict[str, np.ndarray],
    labels: dict[str, str],
    splits: list[tuple[int, list[tuple[list[str], list[str]]]]],
    cfg: TrainConfig,
) -> list[dict]:
    """One run per (seed, folds) of `splits`: each (train ids, test ids) fold
    trained and scored, and the run as its classification.json record, the
    fold scores and their means."""
    runs = []
    for seed, seed_folds in splits:
        folds = []
        for fold, (train_ids, test_ids) in enumerate(seed_folds):
            try:
                folds.append(_evaluate(fold, train_ids, test_ids, vectors_by_id, labels, replace(cfg, seed=seed)))
            except TrainingError as exc:
                raise TrainingError(f"seed {seed} fold {fold}: {exc}") from exc
        means = {m: float(np.mean([f[m] for f in folds])) for m in ("macro_f1", "acc_ad", "acc_c")}
        runs.append({"seed": seed, **means, "folds": folds})
    return runs
