"""Embedding-based AD/Control classification.

A class-weighted logistic regression head trained by full-batch gradient
descent over provider embeddings, with stratified early-stopping validation,
evaluated per seed over the (train ids, test ids) folds it is given: the k
folds of cross-validation, or the one fold of a fixed split. `prepare` turns
the folds into row indices, targets, class weights and holdouts once, and every
kind's heads train on that one preparation. `evaluate_stack` trains the heads
of a stack of kinds' arrays at once with `train_stack`, each kind stopping
early on its own; `chunks` cuts the kinds into stacks of at most `STACK_BYTES`.
A kind's heads are the same bits in any stack, so how the kinds are chunked
never shows in the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, TypeVar

import numpy as np

from .config import TrainConfig
from .corpus import GROUP_AD, GROUP_CONTROL, DataError
from .stattests import CLASSIFICATION_MEASURES, mean

T = TypeVar("T")

POSITIVE = GROUP_AD  # ties at score 0.5 resolve to the positive class

# the most bytes of float64 embeddings that the kinds' arrays of one stack may hold together: on larger
# arrays a stacked epoch is slower than one kind's after another, and every array of a stack is held at once
STACK_BYTES = 1 << 20


class TrainingError(DataError):
    """The training rows of a fold cannot train a head. train_stack sets `kind`
    to the position in its stack of the kind whose head failed."""

    def __init__(self, message: str, kind: int | None = None):
        super().__init__(message)
        self.kind = kind


def _sigmoid(z: np.ndarray, neg_abs: np.ndarray) -> np.ndarray:
    """The sigmoid of z, given neg_abs = -|z|."""
    # exp(-|z|) <= 1 never overflows: 1/(1+e) where z >= 0, e/(1+e) elsewhere (nan included)
    e = np.exp(neg_abs)
    one_plus_e = 1.0 + e
    return np.where(z >= 0, 1.0 / one_plus_e, e / one_plus_e)


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


@lru_cache(maxsize=16)
def _permutations(seed: int, sizes: tuple[int, ...]) -> tuple[list[int], ...]:
    """A permutation of range(n) for each n of sizes, in turn, from one generator: those that
    np.random.default_rng(seed).permutation draws. The folds of a seed whose classes have the same sizes draw the
    same ones, so they are drawn once. Callers must not change them."""
    # loaded here, not with this module, which the parent of `run`'s workers imports and never draws a holdout in
    from ._pcg64 import Generator

    rng = Generator(seed)
    return tuple(rng.permutation(n) for n in sizes)


def _stratified_holdout(y: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Boolean mask of validation rows, at least one per class when possible: the first rows of each class, in the
    order of a permutation of them, one generator of the seed's drawing every class's in class order."""
    held = []
    for cls in sorted(set(y.tolist())):  # the classes as np.unique orders them; np.unique would load numpy.ma
        idx = np.flatnonzero(y == cls)
        n_val = max(1, int(round(len(idx) * fraction)))
        if n_val >= len(idx):
            n_val = len(idx) - 1
        if n_val > 0:
            held.append((idx, n_val))
    mask = np.zeros(len(y), dtype=bool)
    for (idx, n_val), order in zip(held, _permutations(seed, tuple(len(idx) for idx, _ in held))):
        mask[idx[order[:n_val]]] = True
    return mask


@dataclass(frozen=True)
class Rows:
    """Rows of each kind's embedding array, with their targets (1.0 for AD) and sample weights."""

    index: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    weight_sum: float  # weights.sum(), which each epoch divides by


@dataclass(frozen=True)
class Fold:
    """What one fold of one seed trains and tests every kind's head on."""

    number: int
    descent: Rows  # the training rows that the gradient steps on
    validation: Rows  # the early-stopping holdout
    test: np.ndarray  # row indices
    gold: list[str]  # the test rows' labels


def _rows(index: np.ndarray, y: np.ndarray, weights: np.ndarray) -> Rows:
    return Rows(index, y, weights, weights.sum())


def _prepare_fold(
    number: int, train: list[int], test: list[int], labels: list[str], seed: int, cfg: TrainConfig
) -> Fold:
    """The fold that trains on rows `train` and tests on rows `test` of arrays whose row i has labels[i]."""
    train_labels = [labels[i] for i in train]
    if len(set(train_labels)) < 2:
        raise TrainingError("training data must contain both classes")
    index = np.array(train, dtype=np.intp)
    y = np.array([1.0 if lab == POSITIVE else 0.0 for lab in train_labels])
    if cfg.class_weighting:
        cw = class_weights(train_labels)
        sw = np.array([cw[lab] for lab in train_labels])
    else:
        sw = np.ones(len(train_labels))

    val_mask = _stratified_holdout(y, cfg.validation_fraction, seed)
    descent = _rows(index[~val_mask], y[~val_mask], sw[~val_mask])
    validation = _rows(index[val_mask], y[val_mask], sw[val_mask])
    if len(set(descent.y)) < 2:
        # tiny folds can lose a class to the holdout; train on everything
        descent = validation = _rows(index, y, sw)
    return Fold(number, descent, validation, np.array(test, dtype=np.intp), [labels[i] for i in test])


def prepare(
    ids: list[str],
    labels: dict[str, str],
    splits: list[tuple[int, list[tuple[list[str], list[str]]]]],
    cfg: TrainConfig,
) -> list[tuple[int, list[Fold]]]:
    """Each (seed, folds) of `splits` with its (train ids, test ids) folds
    prepared for arrays whose rows are `ids`: the row indices, and the training
    rows' targets, class weights and stratified holdout. They depend on no
    kind, so every kind trains on the one preparation."""
    row = {item_id: i for i, item_id in enumerate(ids)}
    row_labels = [labels[item_id] for item_id in ids]
    prepared = []
    for seed, seed_folds in splits:
        folds = []
        for number, (train_ids, test_ids) in enumerate(seed_folds):
            train_rows, test_rows = [row[i] for i in train_ids], [row[i] for i in test_ids]
            try:
                folds.append(_prepare_fold(number, train_rows, test_rows, row_labels, seed, cfg))
            except TrainingError as exc:
                raise TrainingError(f"seed {seed} fold {number}: {exc}") from exc
        prepared.append((seed, folds))
    return prepared


def _stack_loss(z: np.ndarray, neg_abs: np.ndarray, rows: Rows, penalty: np.ndarray) -> np.ndarray:
    """Each kind's class-weighted loss on `rows`, from its scores z and neg_abs = -|z|, both (kinds, rows), and
    penalty, each kind's l2 * (w @ w) / 2."""
    # numerically stable log-loss: log(1+exp(-|z|)) + max(z,0) - z*y
    per_item = np.logaddexp(0.0, neg_abs) + np.maximum(z, 0.0) - z * rows.y
    return np.add.reduce(rows.weights * per_item, axis=1) / rows.weight_sum + penalty


def _penalty(w: np.ndarray, l2: float) -> np.ndarray:
    """l2 * (w[k] @ w[k]) / 2.0 for each kind's weights w[k]."""
    return l2 * np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0] / 2.0


def _loss_and_grad(
    w: np.ndarray, b: np.ndarray, xt: np.ndarray, rows: Rows, penalty: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each kind's class-weighted binary cross-entropy with an L2 penalty on its weights, and its gradient, for
    the weights w (kinds, dim) and biases b (kinds,) on the stack xt (kinds, rows, dim) of `rows`, where penalty
    is _penalty(w, l2):

        loss[k] = sum_i cw_i * BCE_ki / sum_i cw_i + l2 * ||w[k]||^2 / 2.
    """
    z = np.matmul(xt, w[:, :, None])[:, :, 0] + b[:, None]
    neg_abs = -np.abs(z)
    loss = _stack_loss(z, neg_abs, rows, penalty)
    resid = rows.weights * (_sigmoid(z, neg_abs) - rows.y) / rows.weight_sum
    gw = np.matmul(xt.transpose(0, 2, 1), resid[:, :, None])[:, :, 0] + l2 * w
    gb = np.add.reduce(resid, axis=1)
    return loss, gw, gb


@np.errstate(over="ignore", invalid="ignore")  # a diverging loss raises TrainingError instead
def train_stack(x: np.ndarray, fold: Fold, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The heads of every kind's array x[k] of the stack x (kinds, rows, dim)
    on the fold's training rows: their weights (kinds, dim) and biases
    (kinds,), by full-batch gradient descent with lr/sqrt(epoch) decay and
    early stopping on the validation rows' loss. Deterministic. A kind's head
    is the same bits in any stack, alone included: every product is one
    batched matmul, which makes one BLAS call per kind on that kind's rows, and
    every sum runs over one kind's row. Each kind stops early on its own and is
    not looked at again, though the stack keeps stepping it until every kind
    has stopped; a kind that never improves keeps the zero head. A failure
    names the kind's position as its `kind`."""
    d, v = fold.descent, fold.validation
    # each kind's rows C-contiguous, as one kind's alone are: x[:, index] would space them by every kind's rows,
    # and BLAS can sum a product over rows of another stride in another order
    xt, xv = np.take(x, d.index, axis=1), np.take(x, v.index, axis=1)
    kinds = len(x)
    w = np.zeros((kinds, x.shape[2]))
    b = np.zeros(kinds)
    best_loss, best_w, best_b = [math.inf] * kinds, w.copy(), b.copy()
    patience_left = [cfg.patience] * kinds
    running = range(kinds)
    penalty = _penalty(w, cfg.l2)  # the same for an epoch's validation loss and the next epoch's training loss
    for epoch in range(1, cfg.max_epochs + 1):
        loss, gw, gb = _loss_and_grad(w, b, xt, d, penalty, cfg.l2)
        loss = loss.tolist()
        lr = cfg.learning_rate / math.sqrt(epoch)
        w -= lr * gw
        b -= lr * gb
        penalty = _penalty(w, cfg.l2)
        z = np.matmul(xv, w[:, :, None])[:, :, 0] + b[:, None]
        val_loss = _stack_loss(z, -np.abs(z), v, penalty).tolist()
        still_running = []
        for k in running:
            if not math.isfinite(loss[k]):
                raise TrainingError(f"non-finite training loss at epoch {epoch}: {loss[k]}", k)
            if val_loss[k] < best_loss[k] - 1e-12:
                best_loss[k], best_w[k], best_b[k] = val_loss[k], w[k], b[k]
                patience_left[k] = cfg.patience
            else:
                patience_left[k] -= 1
                if patience_left[k] <= 0:
                    continue
            still_running.append(k)
        running = still_running
        if not running:
            break
    finite = np.isfinite(best_w).all(axis=1) & np.isfinite(best_b)
    if not finite.all():
        raise TrainingError("non-finite head parameters", int(np.argmin(finite)))
    return best_w, best_b


def _labels(scores: Iterable[float]) -> list[str]:
    return [POSITIVE if s >= 0.5 else GROUP_CONTROL for s in scores]


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


def run_seeds(master_seed: int, n_runs: int) -> list[int]:
    """Derived run seeds: a documented counter scheme over one master seed."""
    return [master_seed * 10007 + i for i in range(n_runs)]


def _record(fold: Fold, pred: list[str]) -> dict:
    """A fold's classification.json record, from the labels predicted for its test rows."""
    scores = (macro_f1(pred, fold.gold), *per_class_accuracy(pred, fold.gold))
    return {"fold": fold.number, **dict(zip(CLASSIFICATION_MEASURES, scores))}


def _run(seed: int, records: list[dict]) -> dict:
    """A seed's classification.json run: its fold records and their means."""
    means = {m: mean([f[m] for f in records]) for m in CLASSIFICATION_MEASURES}
    return {"seed": seed, **means, "folds": records}


def chunks(kinds: list[T], rows: int, columns: int) -> list[list[T]]:
    """`kinds`, whose arrays are rows x columns float64 embeddings, cut in order into the stacks that
    evaluate_stack trains one after another: as many kinds as hold at most STACK_BYTES together, and at least one."""
    size = max(1, STACK_BYTES // max(1, rows * columns * 8))
    return [kinds[start:start + size] for start in range(0, len(kinds), size)]


def evaluate_stack(
    vectors: Iterable[np.ndarray], folds: list[tuple[int, list[Fold]]], cfg: TrainConfig
) -> list[list[dict]]:
    """One run per (seed, folds) of prepare's `folds` for each kind's array of
    `vectors`, all of one shape: each fold's heads trained at once by
    train_stack on its rows and scored at once on its test rows, and each run
    as its classification.json record, the fold scores and their means. Only
    their stack is kept from `vectors`. A failure names the kind's position in
    it as its `kind`."""
    x = np.asarray(np.stack(list(vectors)), dtype=np.float64)
    runs: list[list[dict]] = [[] for _ in x]
    for seed, seed_folds in folds:
        records: list[list[dict]] = [[] for _ in x]
        for fold in seed_folds:
            try:
                w, b = train_stack(x, fold, cfg)
            except TrainingError as exc:
                raise TrainingError(f"seed {seed} fold {fold.number}: {exc}", exc.kind) from exc
            z = np.matmul(np.take(x, fold.test, axis=1), w[:, :, None])[:, :, 0] + b[:, None]
            for kind_records, scores in zip(records, _sigmoid(z, -np.abs(z)).tolist()):
                kind_records.append(_record(fold, _labels(scores)))
        for kind_runs, kind_records in zip(runs, records):
            kind_runs.append(_run(seed, kind_records))
    return runs
