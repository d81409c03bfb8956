"""Self-contained statistical tests: Welch's t, Wilcoxon signed-rank, Pearson.

The special functions (erf, regularized incomplete beta, Student-t CDF) are
implemented here directly so the package carries no heavyweight stats
dependency and every p-value is traceable to code in this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def erf(x: float) -> float:
    """Error function, series for small |x| and continued fraction otherwise."""
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -erf(-x)
    if x > 6.0:
        return 1.0
    if x < 2.0:
        # power series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1))
        total = 0.0
        term = x
        n = 0
        while abs(term) > 1e-18 * max(abs(total), 1.0):
            total += term / (2 * n + 1)
            n += 1
            term *= -x * x / n
        return 2.0 / math.sqrt(math.pi) * total
    # erfc via the Lentz continued fraction, then erf = 1 - erfc:
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x+ (1/2)/(x+ 1/(x+ (3/2)/(x+ 2/(x+ ...)))))
    f = _LENTZ_TINY
    c = f
    d = 0.0
    for i in range(_LENTZ_MAX_ITER):
        a = 1.0 if i == 0 else i / 2.0
        d = x + a * d
        if d == 0.0:
            d = _LENTZ_TINY
        c = x + a / c
        if c == 0.0:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            break
    erfc = math.exp(-x * x) / math.sqrt(math.pi) * f
    return 1.0 - erfc


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))


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


def _mean_var(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    m = sum(xs) / n
    var = sum((x - m) ** 2 for x in xs) / (n - 1)
    return m, var


def welch_t(a: list[float], b: list[float]) -> StatTestResult:
    """Two-sided Welch's t-test (unequal variances, Welch-Satterthwaite df)."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("welch_t requires at least 2 observations per sample")
    ma, va = _mean_var(a)
    mb, vb = _mean_var(b)
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return StatTestResult(0.0, 1.0, "welch", df=float(len(a) + len(b) - 2))
        raise DegenerateDataError("both samples have zero variance")
    na, nb = len(a), len(b)
    sa, sb = va / na, vb / nb
    t = (ma - mb) / math.sqrt(sa + sb)
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

    Zero differences are dropped. Exact p (full sign-pattern distribution)
    when the effective n is at most EXACT_WILCOXON_MAX_N and the |d| are
    distinct; otherwise a normal approximation with tie and continuity
    corrections.
    """
    if len(a) != len(b):
        raise ValueError("wilcoxon_signed_rank requires equal-length samples")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        raise DegenerateDataError("all paired differences are zero")
    n = len(diffs)
    ranks = _rank_abs(diffs)
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    distinct = len({abs(d) for d in diffs}) == n

    if n <= EXACT_WILCOXON_MAX_N and distinct:
        int_ranks = [int(r) for r in ranks]
        counts = _wplus_distribution(int_ranks)
        total = 2**n
        w = int(round(w_plus))
        p_low = sum(counts[: w + 1]) / total
        p_high = sum(counts[w:]) / total
        p = min(1.0, 2.0 * min(p_low, p_high))
        return StatTestResult(w_plus, p, "wilcoxon_exact")

    mean = n * (n + 1) / 4.0
    tie_sizes: dict[float, int] = {}
    for d in diffs:
        tie_sizes[abs(d)] = tie_sizes.get(abs(d), 0) + 1
    tie_term = sum(t**3 - t for t in tie_sizes.values())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if var <= 0.0:
        raise DegenerateDataError("zero variance after tie correction")
    num = w_plus - mean
    # continuity correction shrinks |numerator| by 0.5
    num -= 0.5 * (1 if num > 0 else -1 if num < 0 else 0)
    z = num / math.sqrt(var)
    p = min(1.0, 2.0 * (1.0 - normal_cdf(abs(z))))
    return StatTestResult(w_plus, p, "wilcoxon_normal")


def pearson(x: list[float], y: list[float]) -> StatTestResult:
    """Pearson correlation with a two-sided t-based p-value (df = n - 2)."""
    if len(x) != len(y):
        raise ValueError("pearson requires equal-length samples")
    n = len(x)
    if n < 3:
        raise ValueError("pearson requires n >= 3")
    mx = sum(x) / n
    my = sum(y) / n
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
