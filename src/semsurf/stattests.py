"""Self-contained statistical tests, Welch's t, Wilcoxon signed-rank and Pearson, and stats.json's `summarize`.

The special functions (regularized incomplete beta, Student-t CDF) are
implemented here directly, and the normal tail is the standard library's
`math.erfc`, so the package carries no heavyweight stats dependency and every
p-value is traceable to code in this file or to the standard library. `mean`
takes every average of folds, runs and groups. No file I/O and no numpy here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .corpus import DataError
from .lexstats import MEASURES

CLASSIFICATION_MEASURES = ("macro_f1", "acc_ad", "acc_c")  # of each fold, and of each run as its folds' means


class DegenerateDataError(ValueError):
    """Raised when a test's inputs carry no usable signal (e.g. zero variance)."""


@dataclass(frozen=True)
class StatTestResult:
    statistic: float
    p_value: float
    method: str
    df: float | None = None  # absent for the exact Wilcoxon branch

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value out of [0,1]: {self.p_value}")


# ---------------------------------------------------------------------------
# special functions

_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-15
_LENTZ_MAX_ITER = 500


def _nonzero(v: float) -> float:
    return _LENTZ_TINY if abs(v) < _LENTZ_TINY else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _LENTZ_MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h
    raise ArithmeticError(f"incomplete beta CF did not converge (a={a}, b={b}, x={x})")


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("incomplete_beta requires a > 0 and b > 0")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"incomplete_beta x out of [0,1]: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # use the CF on whichever side converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """Student-t CDF via the regularized incomplete beta."""
    if df <= 0.0:
        raise ValueError(f"t_cdf requires df > 0, got {df}")
    if t == 0.0:
        return 0.5
    ib = incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - ib / 2.0 if t > 0 else ib / 2.0


def _t_two_sided_p(t: float, df: float) -> float:
    return incomplete_beta(df / 2.0, 0.5, df / (df + t * t)) if t != 0.0 else 1.0


# ---------------------------------------------------------------------------
# tests


def mean(xs: list[float]) -> float:
    """The mean of xs: the correctly rounded sum over n, corrected by the mean of
    the deviations from it, so that the mean of a constant sample is its value."""
    n = len(xs)
    m = math.fsum(xs) / n
    return m + math.fsum(x - m for x in xs) / n


def _unit_scaled(xs: list[float]) -> tuple[list[float], int]:
    """xs times the power of two 2**-e that brings its largest |value| into [0.5, 1), and e.

    A power-of-two factor only shifts exponents, so it is exact, and it keeps
    the sums of squares and products below from overflowing or underflowing
    on very large or very small inputs. Pearson's r and Welch's df do not
    change under a scale factor.
    """
    _, exp = math.frexp(max(abs(v) for v in xs))
    return [math.ldexp(v, -exp) for v in xs], exp


def _scaled_moments(xs: list[float]) -> tuple[float, int, float, int]:
    """The mean and sample variance of xs as (m, e, v, f): mean = m * 2**e, variance = v * 4**f.

    Each sample gets its own power of two, so that a constant sample does not
    push the other's values below the smallest float, and the deviations from
    the mean get theirs before they are squared, so that a spread far below
    the values does not underflow to 0.
    """
    xs, e = _unit_scaled(xs)
    m = mean(xs)
    dev, f = _unit_scaled([x - m for x in xs])
    return m, e, sum(d**2 for d in dev) / (len(xs) - 1), e + f


def welch_t(a: list[float], b: list[float]) -> StatTestResult:
    """Two-sided Welch's t-test (unequal variances, Welch-Satterthwaite df)."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("welch_t requires at least 2 observations per sample")
    na, nb = len(a), len(b)
    ma, ea, va, fa = _scaled_moments(a)
    mb, eb, vb, fb = _scaled_moments(b)
    e = max(ea, eb)
    diff = math.ldexp(ma, ea - e) - math.ldexp(mb, eb - e)  # the difference of the means times 2**-e
    if va == vb == 0.0:
        if diff == 0.0:
            return StatTestResult(0.0, 1.0, "welch", df=float(na + nb - 2))
        raise DegenerateDataError("both samples have zero variance")
    # the squared standard errors times 4**-f, at the larger exponent of those that are not 0
    f = max(fa if va else fb, fb if vb else fa)
    sa, sb = math.ldexp(va / na, 2 * (fa - f)), math.ldexp(vb / nb, 2 * (fb - f))
    q = diff / math.sqrt(sa + sb)
    try:
        t = math.ldexp(q, e - f)
    except OverflowError:  # beyond the largest float, as for a constant sample against a tiny spread
        t = math.copysign(math.inf, q)
    # df does not change under a common factor either, so the larger term is brought into
    # [0.5, 1) before the terms are squared
    (sa, sb), _ = _unit_scaled([sa, sb])
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    return StatTestResult(t, _t_two_sided_p(t, df), "welch", df=df)


def _rank_abs(diffs: list[float]) -> list[float]:
    """Average ranks of |d|, ties sharing the mean of their rank span."""
    order = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * len(diffs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _wplus_distribution(ranks: list[int]) -> list[int]:
    """Counts of sign patterns per W+ value (DP over the 2^n patterns)."""
    total = sum(ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in ranks:
        for w in range(total, r - 1, -1):
            counts[w] += counts[w - r]
    return counts


EXACT_WILCOXON_MAX_N = 20


def wilcoxon_signed_rank(a: list[float], b: list[float]) -> StatTestResult:
    """Paired two-sided Wilcoxon signed-rank test.

    Zero differences are dropped, and tied |d| share their mid-rank. Exact p
    (full sign-pattern distribution of the mid-ranks) when the effective n is
    at most EXACT_WILCOXON_MAX_N; otherwise a normal approximation with tie
    and continuity corrections.
    """
    if len(a) != len(b):
        raise ValueError("wilcoxon_signed_rank requires equal-length samples")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        raise DegenerateDataError("all paired differences are zero")
    n = len(diffs)
    ranks = _rank_abs(diffs)
    w_plus = sum((r for d, r in zip(diffs, ranks) if d > 0), 0.0)

    if n <= EXACT_WILCOXON_MAX_N:
        # a mid-rank is a multiple of 1/2, so the doubled ranks and 2 W+ are integers, summed exactly
        counts = _wplus_distribution([int(2 * r) for r in ranks])
        total = 2**n
        w = int(2 * w_plus)
        p_low = sum(counts[: w + 1]) / total
        p_high = sum(counts[w:]) / total
        p = min(1.0, 2.0 * min(p_low, p_high))
        return StatTestResult(w_plus, p, "wilcoxon_exact")

    expected = n * (n + 1) / 4.0
    tie_sizes: dict[float, int] = {}
    for d in diffs:
        tie_sizes[abs(d)] = tie_sizes.get(abs(d), 0) + 1
    tie_term = sum(t**3 - t for t in tie_sizes.values())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if var <= 0.0:
        raise DegenerateDataError("zero variance after tie correction")
    num = w_plus - expected
    # continuity correction shrinks |numerator| by 0.5
    num -= 0.5 * (1 if num > 0 else -1 if num < 0 else 0)
    z = num / math.sqrt(var)
    # the two-sided normal tail 2 * (1 - Phi(|z|)) as erfc, which keeps its precision where 1 - Phi(|z|) cancels
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return StatTestResult(w_plus, p, "wilcoxon_normal")


def pearson(x: list[float], y: list[float]) -> StatTestResult:
    """Pearson correlation with a two-sided t-based p-value (df = n - 2)."""
    if len(x) != len(y):
        raise ValueError("pearson requires equal-length samples")
    n = len(x)
    if n < 3:
        raise ValueError("pearson requires n >= 3")
    (x, _), (y, _) = _unit_scaled(x), _unit_scaled(y)  # r does not change when one side alone is scaled
    mx, my = mean(x), mean(y)
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateDataError("constant sample has no defined correlation")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        return StatTestResult(r, 0.0, "pearson", df=float(df))
    t = r * math.sqrt(df / (1.0 - r * r))
    return StatTestResult(r, _t_two_sided_p(t, df), "pearson", df=float(df))


# ---------------------------------------------------------------------------
# stats.json


def _entry(test, x: list[float], y: list[float], fields: Callable[[StatTestResult], dict]) -> dict:
    """stats.json's entry for test(x, y): fields(result), or {"error": ...} on too few values, or none that vary."""
    try:
        res = test(x, y)
    except ValueError as exc:
        return {"error": str(exc)}
    return fields(res)


def welch_comparison(values: dict[str, list[float | None]]) -> dict:
    """stats.json's Welch's t entry for one measure's C and AD values; a None
    (a measure undefined for its document) is dropped and counted as excluded."""
    c = [v for v in values["C"] if v is not None]
    a = [v for v in values["AD"] if v is not None]
    return _entry(welch_t, c, a, lambda res: {
        "mean_control": mean(c), "mean_ad": mean(a), "n_control": len(c), "n_ad": len(a),
        "excluded": len(values["C"]) + len(values["AD"]) - len(c) - len(a),
        "statistic": res.statistic, "df": res.df, "p_value": res.p_value,
    })


def summarize(similarity: dict, classification: dict, lexical: dict, baseline: str) -> dict:
    """stats.json, from the parsed similarity.json, classification.json and lexical.json: each kind's
    mean scores over its runs, the Wilcoxon test of each other kind's macro-F1 against the baseline's,
    paired by seed, the Pearson r of cosine and mean macro-F1 across the kinds, and each lexical
    measure's Welch's t of C against AD. Unpaired runs, or none of the baseline, are a DataError."""
    runs, seeds = classification["runs"], classification["seeds"]
    if baseline not in runs:
        raise DataError(f"classification.json has no runs of the baseline {baseline}")
    for kind, kind_runs in runs.items():
        if [r["seed"] for r in kind_runs] != seeds:
            raise DataError(f"{kind}: {len(kind_runs)} runs, expected one per seed {seeds} (unpaired)")
    means = {kind: {m: mean([r[m] for r in kind_runs]) for m in CLASSIFICATION_MEASURES}
             for kind, kind_runs in runs.items()}
    base_f1 = [r["macro_f1"] for r in runs[baseline]]
    wilcoxon = {
        kind: _entry(wilcoxon_signed_rank, [r["macro_f1"] for r in kind_runs], base_f1, lambda res: {
            "statistic": res.statistic, "p_value": res.p_value, "method": res.method,
        })
        for kind, kind_runs in sorted(runs.items()) if kind != baseline
    }
    kinds = [k for k in similarity["scores"] if k in runs]
    correlation = None
    if len(kinds) >= 3:
        cosines, f1s = [similarity["scores"][k]["cosine"] for k in kinds], [means[k]["macro_f1"] for k in kinds]
        correlation = _entry(pearson, cosines, f1s, lambda res: {
            "kinds": kinds, "r": res.statistic, "df": res.df, "p_value": res.p_value,
        })
    return {
        "baseline": baseline,
        "classification": {"n_runs": len(seeds), "means": means},
        "wilcoxon_vs_baseline": wilcoxon,
        "pearson": correlation,
        "welch": {kind: {m: welch_comparison(values[m]) for m in MEASURES} for kind, values in lexical.items()},
    }
