from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from takagiqv.qfield import Dyadic, QuadValue, pow2_half
from takagiqv.schemes import BUILTIN_NAMES, SchemeDepthError, Explicit, parse_scheme
from takagiqv.takagi import (
    TAIL_SUM,
    THIRDS_PEAK,
    TakagiFunction,
    recover_coefficient,
    recover_rows,
    thirds_value,
)

from conftest import oracle_approx_level, oracle_grid_pairs, oracle_partial, oracle_partial_sum

ALL_SCHEMES = BUILTIN_NAMES + ("bernoulli:1/2:1",)


def fn(spec: str) -> TakagiFunction:
    return TakagiFunction(parse_scheme(spec))


#: Points of [0, 1]: dyadic, a/(3*2**k), a/7 and a/999.
unit_points = st.one_of(
    st.integers(0, 40).flatmap(lambda k: st.integers(0, 1 << k).map(lambda a: F(a, 1 << k))),
    st.integers(0, 30).flatmap(lambda k: st.integers(0, 3 << k).map(lambda a: F(a, 3 << k))),
    st.integers(0, 7).map(lambda a: F(a, 7)),
    st.integers(0, 999).map(lambda a: F(a, 999)),
)


class TestPartialSum:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ALL_SCHEMES), unit_points, st.integers(0, 64))
    def test_matches_oracle(self, spec, t, n):
        f = fn(spec)
        assert f.partial_sum(n, t) == oracle_partial_sum(f, n, t)

    def test_two_generations_at_quarter(self):
        assert fn("all_plus").partial_sum(2, F(1, 4)) == QuadValue(F(1, 4), F(1, 4))

    def test_single_wedge(self):
        assert fn("all_plus").partial_sum(1, F(1, 2)) == QuadValue(F(1, 2), 0)

    def test_half_split_flips_second_generation(self):
        assert fn("half_split").partial_sum(2, F(3, 4)) == QuadValue(F(1, 4), F(-1, 4))

    def test_domain_check(self):
        with pytest.raises(ValueError):
            fn("all_plus").partial_sum(3, F(9, 8))

    @pytest.mark.parametrize("spec", ALL_SCHEMES)
    @pytest.mark.parametrize("t", [F(0), F(1, 8), F(1, 3), F(5, 7), F(1)])
    def test_against_double_loop_oracle(self, spec, t):
        f = fn(spec)
        assert f.partial_sum(6, t) == oracle_partial(f, 6, t)


class TestDyadicValues:
    def test_jacobsthal_point(self):
        # closed form at the level-4 maximizer 5/16
        expected = (QuadValue(2, 1) + QuadValue(F(1, 16), F(-1, 16))) * F(1, 3) - pow2_half(-4)
        assert fn("all_plus").at_dyadic(F(5, 16)) == expected

    @pytest.mark.parametrize("spec", ALL_SCHEMES)
    def test_boundary_zeros(self, spec):
        assert fn(spec).at_dyadic(F(0)) == QuadValue(0, 0)
        assert fn(spec).at_dyadic(F(1)) == QuadValue(0, 0)

    def test_alternating_quarter(self):
        assert fn("alt_m").at_dyadic(F(1, 4)) == QuadValue(F(1, 4), F(-1, 4))

    def test_accepts_dyadic_objects(self):
        assert fn("all_plus").at_dyadic(Dyadic(1, 1)) == QuadValue(F(1, 2), 0)

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            fn("all_plus").at_dyadic(F(1, 3))

    @pytest.mark.parametrize("spec", ALL_SCHEMES)
    def test_truncation_stability(self, spec):
        f = fn(spec)
        t = F(3, 8)
        v = f.at_dyadic(t)
        for extra in range(3, 9):
            assert f.partial_sum(extra, t) == v

    @pytest.mark.parametrize("spec", ALL_SCHEMES)
    def test_grid_pairs_match_scalar_path(self, spec):
        f = fn(spec)
        level = 6
        p, q = f.grid_pairs(level)
        den = 1 << level
        for j in range(0, den + 1, 5):
            expected = f.at_dyadic(F(j, den))
            assert QuadValue(F(int(p[j]), den), F(int(q[j]), den)) == expected

    @pytest.mark.parametrize("spec", BUILTIN_NAMES + ("bernoulli:2/5:42",))
    @pytest.mark.parametrize("level", [0, 1, 2, 16])
    def test_grid_pairs_match_midpoint_oracle(self, spec, level):
        f = fn(spec)
        p, q = f.grid_pairs(level)
        op, oq = oracle_grid_pairs(f, level)
        assert p.dtype == q.dtype == np.int64
        np.testing.assert_array_equal(p, op)
        np.testing.assert_array_equal(q, oq)

    def test_grid_level_cap(self):
        with pytest.raises(ValueError):
            fn("all_plus").grid_pairs(27)

    @pytest.mark.parametrize("level", [27, -1])
    def test_grid_level_refused_before_allocating(self, monkeypatch, level):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the level check")

        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match=r"\[0, 26\]"):
            fn("all_plus").grid_pairs(level)

    def test_dominated_by_all_plus(self):
        hat_p, hat_q = fn("all_plus").grid_pairs(8)
        for spec in ALL_SCHEMES + ("bernoulli:1/4:9",):
            p, q = fn(spec).grid_pairs(8)
            for j in range(0, (1 << 8) + 1, 3):
                v = QuadValue(F(int(p[j]), 256), F(int(q[j]), 256))
                hat = QuadValue(F(int(hat_p[j]), 256), F(int(hat_q[j]), 256))
                assert abs(v).compare(hat) <= 0


class TestApprox:
    def test_tail_bound_guarantee(self):
        f = fn("all_plus")
        value, bound = f.approx(F(1, 3), F(1, 10 ** 4))
        assert bound.compare(F(1, 10 ** 4)) <= 0
        assert abs(value - THIRDS_PEAK).compare(bound) <= 0

    def test_smallest_level_is_used(self):
        f = fn("all_plus")
        tol = F(1, 1000)
        _, bound = f.approx(F(2, 3), tol)
        # one generation earlier the tail bound must still exceed tol
        assert bound == TAIL_SUM * pow2_half(-(oracle_approx_level(tol) + 2))

    #: Tolerances above 1, powers of ten down to the CLI's floor 1/10**1000, and rationals
    #: just above and below the tail bounds of levels 0 .. 39.
    TOLERANCES = [F(1), F(2), F(17, 10), F(3), F(12), F(1, 2), F(99, 100)] + [
        F(1, 10**k) for k in (*range(1, 16), 50, 99, 100, 101, 333, 999, 1000)
    ] + [
        F(round((2 + 2**0.5) * 2 ** (-(n + 2) / 2) * 10**12) + e, 10**12) for n in range(40) for e in (-1, 1)
    ]

    @pytest.mark.parametrize("tol", TOLERANCES, ids=lambda tol: f"1/10**{len(str(tol.denominator)) - 1}"
                             if tol.numerator == 1 and tol.denominator > 10**20 else str(tol))
    def test_level_matches_bound_by_bound_search(self, tol):
        value, bound = fn("half_split").approx(F(1, 2), tol)
        level = oracle_approx_level(tol)
        assert bound == TAIL_SUM * pow2_half(-(level + 2))
        assert value == fn("half_split").partial_sum(level, F(1, 2))

    def test_at_zero(self):
        value, bound = fn("alt_mk").approx(F(0), F(1, 50))
        assert value == QuadValue(0, 0)
        assert bound.compare(F(1, 50)) <= 0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            fn("all_plus").approx(F(1, 3), F(0))


class TestThirds:
    def test_peak(self):
        assert thirds_value(fn("all_plus"), F(1, 3)) == THIRDS_PEAK
        assert thirds_value(fn("all_plus"), F(2, 3)) == THIRDS_PEAK

    def test_half_split_minimum_point(self):
        v = thirds_value(fn("half_split"), F(5, 6))
        assert v == QuadValue(F(1, 2), 0) - THIRDS_PEAK

    def test_sixth(self):
        expected = QuadValue(F(1, 6), 0) + pow2_half(-1) * THIRDS_PEAK
        assert thirds_value(fn("all_plus"), F(1, 6)) == expected

    def test_neg_half_split_is_negation(self):
        for t in (F(1, 6), F(1, 3), F(7, 12), F(5, 6)):
            assert thirds_value(fn("neg_half_split"), t) == -thirds_value(fn("half_split"), t)

    @pytest.mark.parametrize("t", [F(1, 3), F(1, 6), F(5, 12), F(17, 24), F(2, 3)])
    def test_against_truncated_series(self, t):
        exact = thirds_value(fn("all_plus"), t)
        value, bound = fn("all_plus").approx(t, F(1, 10 ** 8))
        assert abs(value - exact).compare(bound) <= 0

    @pytest.mark.parametrize("spec", ["all_plus", "half_split", "neg_half_split"])
    def test_against_oracle_partial_sums(self, spec):
        # the closed-form tail at both parities of n, on both sides of 1/2:
        # the partial sums converge to the value at rate 2**(-n/2)
        f = fn(spec)
        for k in range(0, 12):
            for a in (1, 2, (3 << k) - 1):
                t = F(a, 3 << k)
                diff = thirds_value(f, t) - oracle_partial_sum(f, 2 * k + 40, t)
                assert abs(float(diff)) < 2.0 ** -(k + 19)

    def test_rejects_other_denominators(self):
        with pytest.raises(ValueError):
            thirds_value(fn("all_plus"), F(1, 5))
        with pytest.raises(ValueError):
            thirds_value(fn("all_plus"), F(1, 4))

    def test_negated_wrappers(self):
        hat = TakagiFunction(parse_scheme("all_plus").negated())
        assert thirds_value(hat, F(1, 3)) == -THIRDS_PEAK
        with pytest.raises(ValueError, match=r"neg\(alt_m\)"):
            thirds_value(TakagiFunction(parse_scheme("alt_m").negated()), F(1, 3))

    def test_rejects_other_schemes(self):
        with pytest.raises(ValueError):
            thirds_value(fn("alt_m"), F(1, 3))


class TestRecovery:
    @pytest.mark.parametrize("spec", ALL_SCHEMES)
    def test_round_trip_scalar(self, spec):
        f = fn(spec)
        for m, k in [(0, 0), (1, 1), (3, 5), (6, 40)]:
            assert recover_coefficient(f, m, k) == QuadValue(f.scheme.theta(m, k), 0)

    def test_parabola(self):
        assert recover_coefficient(lambda t: t * (1 - t), 0, 0) == QuadValue(F(1, 2), 0)

    def test_linear_functions_have_zero_coefficients(self):
        for m, k in [(0, 0), (2, 3), (5, 17)]:
            assert recover_coefficient(lambda t: 3 * t, m, k) == QuadValue(0, 0)

    @pytest.mark.parametrize("spec", ALL_SCHEMES)
    def test_round_trip_bulk(self, spec):
        f = fn(spec)
        rows = recover_rows(f, 8)
        for m, row in enumerate(rows):
            assert np.array_equal(row, f.row(m))


class TestExplicitDepthLimits:
    def make_fn(self, depth):
        table = {(m, k): 1 for m in range(depth) for k in range(1 << m)}
        return TakagiFunction(Explicit(table, depth))

    def test_within_depth(self):
        f = self.make_fn(4)
        assert f.at_dyadic(F(1, 16)) == fn("all_plus").at_dyadic(F(1, 16))

    def test_beyond_depth_errors(self):
        f = self.make_fn(4)
        with pytest.raises(SchemeDepthError):
            f.at_dyadic(F(1, 32))
        with pytest.raises(SchemeDepthError):
            f.grid_pairs(5)


@settings(max_examples=25)
@given(st.integers(0, 6), st.integers(0, 63), st.sampled_from(["bernoulli:1/2:5", "bernoulli:1/4:5"]))
def test_bernoulli_function_reproducible(m, k, spec):
    if k >= 1 << m:
        k %= 1 << m
    assert fn(spec).scheme.theta(m, k) == fn(spec).scheme.theta(m, k)
