import itertools
import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

try:
    from scipy import stats as scipy_stats
except ImportError:  # scipy serves only as an oracle
    scipy_stats = None

from semsurf.stattests import (
    DegenerateDataError,
    incomplete_beta,
    pearson,
    t_cdf,
    welch_comparison,
    welch_t,
    wilcoxon_signed_rank,
    _rank_abs,
)


def outcome(test, *samples):
    """A test's (statistic, p, df), or the name of the error it raises."""
    try:
        res = test(*samples)
    except (DegenerateDataError, ValueError) as exc:
        return type(exc).__name__
    return res.statistic, res.p_value, res.df


def stays_normal(values, k):
    """Whether each nonzero value is normal before and after scaling by 2**k, which is then exact."""
    low, high = sys.float_info.min, sys.float_info.max
    return all(v == 0.0 or all(low <= abs(x) <= high for x in (v, math.ldexp(v, k))) for v in values)


def brute_force_wilcoxon_p(diffs):
    """Two-sided exact p by enumerating all 2^n sign patterns."""
    ranks = _rank_abs(diffs)
    n = len(diffs)
    w_obs = sum(r for d, r in zip(diffs, ranks) if d > 0)
    lo = hi = 0
    for signs in itertools.product((1, -1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s > 0)
        if w <= w_obs:
            lo += 1
        if w >= w_obs:
            hi += 1
    return min(1.0, 2.0 * min(lo, hi) / 2**n)


class TestSpecialFunctions:
    def test_incomplete_beta_boundaries(self):
        assert incomplete_beta(2.5, 1.5, 0.0) == 0.0
        assert incomplete_beta(2.5, 1.5, 1.0) == 1.0

    def test_incomplete_beta_symmetry(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        for a, b, x in [(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (5.0, 1.0, 0.9)]:
            assert incomplete_beta(a, b, x) == pytest.approx(
                1.0 - incomplete_beta(b, a, 1.0 - x), abs=1e-12
            )

    def test_incomplete_beta_domain(self):
        with pytest.raises(ValueError):
            incomplete_beta(2.0, 3.0, 1.5)
        with pytest.raises(ValueError):
            incomplete_beta(-1.0, 3.0, 0.5)

    def test_t_cdf_at_zero(self):
        for df in (1, 2.5, 10, 100):
            assert t_cdf(0.0, df) == 0.5

    def test_t_cdf_reference_point(self):
        # committed reference evaluation
        assert t_cdf(1.0, 10) == pytest.approx(0.829553, abs=1e-6)

    def test_t_cdf_complement(self):
        for t in (0.3, 1.7, 4.2):
            for df in (3, 11.5):
                assert t_cdf(t, df) + t_cdf(-t, df) == pytest.approx(1.0, abs=1e-12)

    def test_t_cdf_monotone(self):
        values = [t_cdf(t, 7) for t in (-3, -1, 0, 0.5, 2, 5)]
        assert values == sorted(values)

    def test_t_cdf_df_domain(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0.0)


class TestWelch:
    def test_identical_samples(self):
        res = welch_t([1, 2, 3], [1, 2, 3])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_reference_fixture(self):
        # frozen output of a reference statistics package (one-time oracle run)
        res = welch_t([1, 2, 3, 4], [2, 4, 6, 8])
        assert res.statistic == pytest.approx(-1.7320508075688772, abs=1e-6)
        assert res.df == pytest.approx(4.411764705882353, abs=1e-6)
        assert res.p_value == pytest.approx(0.15158050484530383, abs=1e-6)

    def test_antisymmetry(self):
        a, b = [1.0, 2.5, 3.1, 0.4], [2.2, 4.0, 1.1]
        r1, r2 = welch_t(a, b), welch_t(b, a)
        assert r1.statistic == pytest.approx(-r2.statistic, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)

    def test_reduces_to_student_when_balanced(self):
        # equal sizes and equal variances: df = na + nb - 2 within 1e-9
        a = [1.0, 2.0, 3.0, 4.0]
        b = [11.0, 12.0, 13.0, 14.0]
        res = welch_t(a, b)
        assert res.df == pytest.approx(len(a) + len(b) - 2, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            welch_t([1.0, 1.0], [2.0, 2.0])

    def test_too_small(self):
        with pytest.raises(ValueError):
            welch_t([1.0], [1.0, 2.0])

    def test_constant_equal_samples_whose_sum_rounds(self):
        # sum([x] * 30) / 30 is one ulp off x, which once made every deviation a full-size +-ulp: t = sqrt(29)
        x = 0.9333333333333333
        res = welch_t([x] * 30, [x] * 10)
        assert (res.statistic, res.p_value) == (0.0, 1.0)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(2, 60),
        st.integers(2, 60),
    )
    @example(0.9333333333333333, 0.9333333333333333, 30, 10)
    @example(3.5442, 3.5442, 30, 10)
    @settings(max_examples=300, deadline=None)
    def test_constant_samples_take_the_degenerate_branch(self, c, d, n, m):
        """Two constant samples have no variance: t = 0 and p = 1 when their values are equal, an error otherwise."""
        if c == d:
            assert outcome(welch_t, [c] * n, [d] * m) == (0.0, 1.0, float(n + m - 2))
        else:
            assert outcome(welch_t, [c] * n, [d] * m) == "DegenerateDataError"

    @pytest.mark.skipif(scipy_stats is None, reason="scipy is not installed")
    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=20).filter(lambda a: max(a) - min(a) > 1e-6),
        st.lists(st.floats(-50, 50), min_size=2, max_size=20).filter(lambda b: max(b) - min(b) > 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_scipy_oracle(self, a, b):
        """Welch's t, df and p agree with scipy's ttest_ind(equal_var=False) on samples that vary
        (scipy squares the deviations unscaled, so a spread below about 1e-154 underflows there)."""
        res = welch_t(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-7, abs=1e-12)
        assert res.df == pytest.approx(ref.df, rel=1e-7)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("a, b", [([1, 1, 1], [0, 1e-300]), ([1e300] * 3, [0, 1.0])])
    def test_constant_sample_against_a_tiny_spread(self, a, b):
        """The second sample's squared deviations underflow at the scale of the first's values."""
        res = welch_t(a, b)
        assert res.statistic == pytest.approx(2e300)
        assert res.p_value == 0.0

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(2, 10),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=10).filter(
            lambda b: len(set(b)) >= 2
        ),
    )
    @example(1.0, 2, [0.0, 5e-324])  # |t| beyond the largest float
    @settings(max_examples=200, deadline=None)
    def test_constant_sample_against_two_values_never_raises(self, c, n, b):
        res = welch_t([c] * n, b)
        assert 0.0 <= res.p_value <= 1.0
        assert res.df > 0.0 and not math.isnan(res.statistic)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=20),
        st.lists(st.floats(-50, 50), min_size=2, max_size=20),
    )
    @example([0.0, 1e-160], [0.0, 2e-160])  # the variances' squares underflow
    @example([0.0, 1e160], [0.0, 3e160, 1e160])  # the sums of squares overflow
    @example([1.0, 1.0], [0.0, 1e-160])  # one spread far below the other sample's values
    @settings(max_examples=100, deadline=None)
    def test_p_in_unit_interval(self, a, b):
        try:
            res = welch_t(a, b)
        except DegenerateDataError:
            return
        assert 0.0 <= res.p_value <= 1.0
        assert res.df > 0.0 and not math.isnan(res.statistic)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        st.integers(-900, 900),
    )
    @example([0.0, 1e-160], [0.0, 2e-160], 600)
    @example([0.0, 1e160], [0.0, 3e160, 1e160], -600)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_under_power_of_two_scaling(self, a, b, k):
        """t and df do not change when both samples are scaled by 2**k."""
        assume(stays_normal(a + b, k))
        scaled = [[math.ldexp(v, k) for v in sample] for sample in (a, b)]
        assert outcome(welch_t, a, b) == outcome(welch_t, *scaled)


class TestGroupCompare:
    """summarize compares each lexical measure's C and AD values with welch_comparison."""

    def test_means_and_p(self):
        res = welch_comparison({"C": [1.0, 2.0, 3.0], "AD": [4.0, 5.0, 6.0]})
        assert res["mean_control"] == 2.0
        assert res["mean_ad"] == 5.0
        assert res["statistic"] < 0.0 and res["df"] == 4.0
        assert 0.0 < res["p_value"] < 0.05

    def test_none_exclusion(self):
        res = welch_comparison({"C": [1.0, None, 2.0, 3.0], "AD": [None, 4.0, 5.0]})
        assert res["n_control"] == 3 and res["n_ad"] == 2
        assert res["excluded"] == 2

    def test_too_few_defined(self):
        res = welch_comparison({"C": [1.0, None], "AD": [2.0, 3.0]})
        assert res == {"error": "welch_t requires at least 2 observations per sample"}

    def test_not_significant_identical(self):
        res = welch_comparison({"C": [1.0, 2.0], "AD": [1.0, 2.0]})
        assert res["p_value"] == 1.0


class TestWilcoxon:
    def test_all_positive_n5(self):
        res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 1, 1, 1, 1])
        assert res.method == "wilcoxon_exact"
        assert res.p_value == 0.0625

    def test_all_zero_differences(self):
        with pytest.raises(DegenerateDataError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_exact_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 12)
            while True:
                d = [rng.uniform(-5, 5) for _ in range(n)]
                if len({abs(x) for x in d}) == n and all(x != 0 for x in d):
                    break
            a = d
            b = [0.0] * n
            res = wilcoxon_signed_rank(a, b)
            assert res.method == "wilcoxon_exact"
            assert res.p_value == pytest.approx(brute_force_wilcoxon_p(d), abs=1e-12)

    def test_exact_on_ties(self):
        """Tied |d| share their mid-rank, and the p of the exact null of the mid-ranks is the enumeration's."""
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [0.0, 1.0, 2.0, 3.0, 4.0, 7.0]  # six |d| of 1
        res = wilcoxon_signed_rank(a, b)
        assert (res.statistic, res.p_value, res.method) == (17.5, 0.21875, "wilcoxon_exact")
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 12)
            d = [rng.choice([-3, -2, -1, 1, 2, 3]) * rng.choice([0.5, 1.0]) for _ in range(n)]
            res = wilcoxon_signed_rank(d, [0.0] * n)
            assert res.method == "wilcoxon_exact"
            assert res.p_value == pytest.approx(brute_force_wilcoxon_p(d), abs=1e-12)

    def test_statistic_is_a_float(self):
        """W+ is a float also when no difference is positive, so stats.json writes 0.0 beside 7.5."""
        for a, b in (([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]), ([1.0] * 25, [2.0] * 25)):
            res = wilcoxon_signed_rank(a, b)
            assert res.statistic == 0.0 and type(res.statistic) is float
            assert type(wilcoxon_signed_rank(b, a).statistic) is float

    def test_normal_close_to_exact_at_n20(self):
        rng = random.Random(42)
        for _ in range(20):
            n = 20
            while True:
                d = [rng.uniform(-5, 5) for _ in range(n)]
                if len({abs(x) for x in d}) == n:
                    break
            exact = wilcoxon_signed_rank(d, [0.0] * n)
            assert exact.method == "wilcoxon_exact"
            # recompute via the normal path by adding one tie-free extra pair
            from semsurf import stattests

            old = stattests.EXACT_WILCOXON_MAX_N
            stattests.EXACT_WILCOXON_MAX_N = 0
            try:
                approx = wilcoxon_signed_rank(d, [0.0] * n)
            finally:
                stattests.EXACT_WILCOXON_MAX_N = old
            assert approx.method == "wilcoxon_normal"
            assert approx.p_value == pytest.approx(exact.p_value, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [1, 2, 3])


class TestPearson:
    def test_perfect_line(self):
        res = pearson([1, 2, 3, 4], [3, 5, 7, 9])
        assert res.statistic == 1.0
        assert res.p_value == 0.0

    def test_reference_correlations(self):
        dog = pearson(
            [0.69, 0.74, 0.76, 0.68, 0.39],
            [0.499, 0.547, 0.647, 0.662, 0.523],
        )
        assert dog.statistic == pytest.approx(0.415, abs=0.005)
        assert dog.p_value == pytest.approx(0.488, abs=0.01)
        adress = pearson(
            [0.60, 0.59, 0.67, 0.66, 0.45],
            [0.695, 0.668, 0.702, 0.694, 0.527],
        )
        assert adress.statistic == pytest.approx(0.953, abs=0.005)
        assert adress.p_value == pytest.approx(0.012, abs=0.005)

    def test_constant_input(self):
        with pytest.raises(DegenerateDataError):
            pearson([1, 1, 1], [1, 2, 3])

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.lists(st.floats(-50, 50), min_size=3, max_size=60),
    )
    @example(0.9333333333333333, [float(i) for i in range(30)])
    @settings(max_examples=300, deadline=None)
    def test_constant_sample_takes_the_degenerate_branch(self, c, ys):
        assert outcome(pearson, [c] * len(ys), ys) == "DegenerateDataError"
        assert outcome(pearson, ys, [c] * len(ys)) == "DegenerateDataError"

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=12, unique=True),
        st.floats(0.1, 10),
        st.floats(-50, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, xs, scale, shift):
        ys = [2.0 * x + 1.0 + ((-1) ** i) * i for i, x in enumerate(xs)]
        moved_xs = [scale * x + shift for x in xs]
        # keep samples whose spread survives rounding: [0.0, 3.27e-90, ...] + 1.0 is all 1.0
        for sample in (xs, moved_xs):
            assume(max(sample) - min(sample) > 1e-4 * max(1.0, *map(abs, sample)))
        base = pearson(xs, ys)
        moved = pearson(moved_xs, ys)
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)
        flipped = pearson(xs, [-y for y in ys])
        assert flipped.statistic == pytest.approx(-base.statistic, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=20))
    @example([(0.0, 0.0), (0.0, 1.3945624165642482e-126), (1.3945624165642482e-126, 0.0)])  # sxx * syy underflows
    @settings(max_examples=100, deadline=None)
    def test_p_in_unit_interval(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        try:
            res = pearson(xs, ys)
        except (DegenerateDataError, ValueError):
            return
        assert 0.0 <= res.p_value <= 1.0
        assert -1.0 <= res.statistic <= 1.0

    def test_reference_correlation_of_huge_values(self):
        # sxx * syy overflows unless the samples are scaled first
        for big in (1e80, 1e160):
            res = pearson([0.0, big, 3 * big], [0.0, big, 2 * big])
            assert res.statistic == pytest.approx(pearson([0, 1, 3], [0, 1, 2]).statistic, rel=1e-12)

    @given(
        st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=12),
        st.integers(-900, 900),
    )
    @example([(0.0, 0.0), (1e80, 1e80), (3e80, 2e80)], -200)
    @example([(0.0, 0.0), (1e160, 1e160), (3e160, 2e160)], -500)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_under_power_of_two_scaling(self, pairs, k):
        """r and p do not change when one sample is scaled by 2**k."""
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        assume(stays_normal(xs, k) and stays_normal(ys, 0))
        scaled = [math.ldexp(x, k) for x in xs]
        assert outcome(pearson, xs, ys) == outcome(pearson, scaled, ys)
