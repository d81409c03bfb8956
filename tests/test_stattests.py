import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semsurf.stattests import (
    DegenerateDataError,
    erf,
    incomplete_beta,
    normal_cdf,
    pearson,
    t_cdf,
    welch_t,
    wilcoxon_signed_rank,
    _rank_abs,
)


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
    def test_erf_against_stdlib(self):
        for i in range(-60, 61):
            x = i / 8.0
            assert erf(x) == pytest.approx(math.erf(x), abs=1e-10)

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

    def test_normal_cdf_symmetry(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-6)


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

    def test_normal_branch_on_ties(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [0.0, 1.0, 2.0, 3.0, 4.0, 7.0]  # |d| ties force the approximation
        res = wilcoxon_signed_rank(a, b)
        assert res.method == "wilcoxon_normal"
        assert 0.0 <= res.p_value <= 1.0

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
