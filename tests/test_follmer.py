import time
from fractions import Fraction as F
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from takagiqv import follmer, takagi
from takagiqv.follmer import (
    RationalPolynomial,
    follmer_sum,
    ito_residual,
    residual_profile,
    time_sum,
)
from takagiqv.qfield import Dyadic, QuadValue
from takagiqv.quadvar import qv_approx
from takagiqv.schemes import BUILTIN_NAMES, parse_scheme
from takagiqv.takagi import TakagiFunction, pair_value

from conftest import oracle_follmer_sum, oracle_grid, oracle_grid_pairs, oracle_time_sum

P = RationalPolynomial.parse


def fn(spec):
    return TakagiFunction(parse_scheme(spec))


class TestPolynomial:
    def test_parse_and_eval(self):
        poly = P("1,-1/2,1")
        assert poly(F(2)) == QuadValue(4, 0)
        assert poly(QuadValue(0, 1)) == QuadValue(3, F(-1, 2))

    def test_derivative(self):
        assert P("5,3,2,1").derivative().coeffs == (F(3), F(4), F(3))
        assert P("7").derivative().coeffs == ()
        assert P("7").derivative()(F(9)) == QuadValue(0, 0)

    def test_degree(self):
        assert P("0,0,1").degree == 2
        assert P("4").degree == 0

    def test_parse_accepts_fraction_syntax(self):
        assert P(" 1/2, -3 ,0.25,1e2").coeffs == (F(1, 2), F(-3), F(1, 4), F(100))

    @pytest.mark.parametrize("text", ["1/0", "0,1,-3/0", "", "1,x"])
    def test_parse_rejects_with_value_error(self, text):
        with pytest.raises(ValueError):
            P(text)

    @pytest.mark.parametrize("text", ["1e3000", "-2.5E-3000", "1e1_000", "0,1e10000"])
    def test_parse_accepts_exponents_up_to_the_bound(self, text):
        assert P(text).coeffs[-1] == F(text.split(",")[-1])

    @pytest.mark.parametrize("text", ["1e10001", "1e-1000000", "0,1E+4000000", "1e1_0000_0", "1e" + "9" * 5000])
    def test_parse_refuses_exponents_beyond_the_bound(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent above 10000"):
            P(text)
        assert time.perf_counter() - start < 0.05


class TestRiemannSums:
    @pytest.mark.parametrize("spec", ["all_plus", "alt_m", "half_split"])
    @pytest.mark.parametrize("level,t", [(3, F(1)), (4, F(5, 16)), (5, F(1, 2))])
    def test_constant_integrand_telescopes(self, spec, level, t):
        f = fn(spec)
        assert follmer_sum(P("1"), f, level, t) == f.at_dyadic(t)

    def test_two_u_level_two(self):
        assert follmer_sum(P("0,2"), fn("all_plus"), 2, 1) == QuadValue(F(-3, 4), 0)

    @pytest.mark.parametrize("spec", ["all_plus", "alt_mk", "bernoulli:1/2:1"])
    @pytest.mark.parametrize("level", [1, 3, 7, 10])
    def test_two_u_full_interval(self, spec, level):
        # sum 2x dx telescopes to x(1)**2 - x(0)**2 - qv = -(1 - 2**-level)
        expected = QuadValue(-(1 - F(1, 1 << level)), 0)
        assert follmer_sum(P("0,2"), fn(spec), level, 1) == expected

    def test_against_fraction_oracle(self):
        f = fn("half_split")
        level, t = 4, F(3, 4)
        vals = oracle_grid(f, level)
        poly = P("1,-2,3")
        acc = QuadValue(0, 0)
        for j in range(int(t * (1 << level))):
            acc = acc + poly(vals[j]) * (vals[j + 1] - vals[j])
        assert follmer_sum(poly, f, level, t) == acc

    def test_time_sum_of_one_is_t(self):
        for t in (F(1, 4), F(5, 8), F(1)):
            assert time_sum(P("1"), fn("alt_m"), 5, t) == QuadValue(t, 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            follmer_sum(P("0,1"), fn("all_plus"), 3, F(1, 16))


def _is_prime(n):
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


SCHEMES = [*BUILTIN_NAMES, "bernoulli:1/3:11"]


def _grid(spec, level):
    return fn(spec).grid_pairs(level)


def oracle_residual_and_sum(f, grid, level, t):
    """f(x(t)) - f(x(0)) - sum f'(x) dx - (1/2) sum f''(x) dt and the dx sum, from the oracles."""
    p, q = grid
    j = Dyadic.from_fraction(F(t)).numerator_at(level)
    f1 = f.derivative()
    rsum = oracle_follmer_sum(f1, grid, level, t)
    residual = (f(pair_value(int(p[j]), int(q[j]), level)) - f(pair_value(int(p[0]), int(q[0]), level))
                - rsum - oracle_time_sum(f1.derivative(), grid, level, t) * F(1, 2))
    return residual, rsum


def assert_stream_matches_oracles(g, x, grid, level, t):
    """follmer_sum, time_sum and the residual of g over x (a function or the
    pair grid grid) at t, against the per-point oracles on grid."""
    assert follmer_sum(g, x, level, t) == oracle_follmer_sum(g, grid, level, t)
    assert time_sum(g, x, level, t) == oracle_time_sum(g, grid, level, t)
    residual, rsum = follmer._residual_and_sum(g, x, level, t)
    assert (QuadValue.from_pair(*residual), QuadValue.from_pair(*rsum)) == oracle_residual_and_sum(g, grid, level, t)


class TestKernel:
    """The multi-modular kernel against the per-point Python-int oracles."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(SCHEMES),
        st.integers(0, 12),
        st.sampled_from(["zero", "first", "half", "one"]),
        st.lists(
            st.fractions(min_value=-10**4, max_value=10**4, max_denominator=5000),
            min_size=1, max_size=9,
        ),
    )
    def test_sums_match_oracles(self, spec, level, where, coeffs):
        t = {"zero": 0, "first": F(1, 1 << level), "half": F(1, 2) if level else 1,
             "one": 1}[where]
        g, grid = RationalPolynomial.of(*coeffs), _grid(spec, level)
        assert follmer_sum(g, grid, level, t) == oracle_follmer_sum(g, grid, level, t)
        assert time_sum(g, grid, level, t) == oracle_time_sum(g, grid, level, t)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("spec", ["all_plus", "half_split", "bernoulli:1/3:11"])
    def test_chunk_boundaries(self, monkeypatch, chunk, spec):
        monkeypatch.setattr(follmer, "_CHUNK", chunk)
        level, f = 9, fn(spec)
        grid = oracle_grid_pairs(f, level)
        g = P("1/3,-2,0,5/7")
        for t in (0, F(1), F(301, 512), F(7, 512), F(chunk, 512), F(3 * chunk, 512)):
            for x in (f, grid):
                assert_stream_matches_oracles(g, x, grid, level, t)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("width", [2, 8, 64])
    @pytest.mark.parametrize("pairs", [False, True], ids=["function", "pair_grid"])
    def test_block_and_chunk_boundaries(self, monkeypatch, pairs, width, chunk):
        monkeypatch.setattr(takagi, "BLOCK", width)
        monkeypatch.setattr(follmer, "_CHUNK", chunk)
        level, f = 8, fn("bernoulli:1/3:11")
        grid = oracle_grid_pairs(f, level)
        x = grid if pairs else f
        g = P("2,-1/3,0,5/7")
        # t = 0, inside the second block, on the edge of the second and third
        # block, on a chunk edge, just before 1, and 1
        for j in (0, width + 1, 2 * width, 3 * chunk, (1 << level) - 1, 1 << level):
            assert_stream_matches_oracles(g, x, grid, level, F(j, 1 << level))

    def test_function_grid_is_never_built_whole(self, monkeypatch):
        f, level = fn("alt_mk"), 18
        grid = oracle_grid_pairs(f, level)

        def refuse(self, level):
            raise AssertionError("a whole grid was built")

        monkeypatch.setattr(TakagiFunction, "grid_pairs", refuse)
        g = P("1/2,0,-3,1")
        residual, rsum = oracle_residual_and_sum(g, grid, level, 1)
        assert ito_residual(g, f, level, 1) == residual
        assert follmer_sum(g.derivative(), f, level, 1) == rsum
        assert time_sum(g, f, level, 1) == oracle_time_sum(g, grid, level, 1)

    def test_several_default_chunks(self):
        level, grid = 16, _grid("alt_mk", 16)
        g = P("0,0,3")
        for t in (F(1), F((1 << 15) + 3, 1 << 16)):
            assert follmer_sum(g, grid, level, t) == oracle_follmer_sum(g, grid, level, t)
            assert time_sum(g.derivative(), grid, level, t) == oracle_time_sum(
                g.derivative(), grid, level, t
            )

    def test_literal_primes(self):
        primes = follmer._PRIMES
        assert all(_is_prime(pr) and pr < 1 << 30 for pr in primes)
        assert list(primes) == sorted(set(primes), reverse=True)

    def test_moduli_beyond_the_literal_primes(self):
        bound = prod(follmer._PRIMES)
        primes = follmer._moduli(bound)
        assert tuple(primes[:16]) == follmer._PRIMES and len(primes) == 17
        assert _is_prime(primes[16]) and primes[16] < primes[15]
        assert prod(primes) > 2 * bound >= prod(primes[:-1])
        assert follmer._moduli(0) == [] and follmer._moduli(1) == [follmer._PRIMES[0]]

    def test_moduli_found_once(self, monkeypatch):
        bound = prod(follmer._PRIMES) ** 3
        first = follmer._moduli(bound)
        monkeypatch.setattr(follmer, "_is_prime", lambda n: pytest.fail("a prime was searched again"))
        assert follmer._moduli(bound) == first
        assert follmer._moduli(prod(first[:20])) == first[:21]

    @pytest.mark.parametrize("bound", [0, 1, 2**29, 2**500, prod(follmer._PRIMES), 10**700])
    def test_moduli_match_a_fresh_search(self, bound):
        # the primes below 2**30, descending, until their product exceeds 2 * bound
        want, c = [], 1 << 30
        while prod(want) <= 2 * bound:
            c -= 1
            if _is_prime(c):
                want.append(c)
        assert follmer._moduli(bound) == want

    def test_bound_beyond_the_literal_primes(self, monkeypatch):
        used = []
        moduli = follmer._moduli
        monkeypatch.setattr(follmer, "_moduli", lambda bound: used.append(moduli(bound)) or used[-1])
        g = RationalPolynomial.of(*(F((-1) ** i * (12345 + i), 7 + i) for i in range(49)))
        level, grid = 10, _grid("half_split", 10)
        assert follmer_sum(g, grid, level, 1) == oracle_follmer_sum(g, grid, level, 1)
        assert time_sum(g, grid, level, 1) == oracle_time_sum(g, grid, level, 1)
        assert min(len(primes) for primes in used) > len(follmer._PRIMES)

    def test_coefficients_beyond_the_primes(self):
        # the coefficients never enter the modular arithmetic
        g = P("1e300,-1/3,0,7e-200,-9e99")
        level, grid = 11, _grid("alt_m", 11)
        for t in (F(1), F(1001, 2048)):
            assert follmer_sum(g, grid, level, t) == oracle_follmer_sum(g, grid, level, t)
            assert time_sum(g, grid, level, t) == oracle_time_sum(g, grid, level, t)

    def test_pair_grid_near_int64_limits(self):
        # increments overflow int64 here; the sums must still be exact
        big = 1 << 62
        p = np.array([big - 1, -big, -(1 << 63), big + 12345, (1 << 63) - 1], dtype=np.int64)
        q = np.array([-big + 7, big - 3, (1 << 63) - 1, -(1 << 63), 5], dtype=np.int64)
        for coeffs in ("1", "0,1", "2,-1/3,1", "0,0,0,1/5"):
            g = P(coeffs)
            for t in (F(1, 4), F(3, 4), F(1)):
                assert_stream_matches_oracles(g, (p, q), (p, q), 2, t)


# every builtin scheme and bernoulli:1/3:7 as functions, and bernoulli:1/3:7 as a caller's pair grid
INTEGRATORS = [*((spec, False) for spec in (*BUILTIN_NAMES, "bernoulli:1/3:7")), ("bernoulli:1/3:7", True)]
# rationals with numerators and denominators up to 10**6 in size
wide_fractions = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


class TestResidualAndSum:
    """The residual and its Riemann sum as integer triples, against the per-point oracles."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(INTEGRATORS),
        st.integers(0, 12),
        st.integers(0, 1 << 12),
        st.lists(wide_fractions, min_size=1, max_size=7),
    )
    def test_triples_match_oracle(self, integrator, level, j, coeffs):
        (spec, pairs), t = integrator, F(j % ((1 << level) + 1), 1 << level)
        grid = _grid(spec, level)
        x = grid if pairs else fn(spec)
        g = RationalPolynomial.of(*coeffs)
        residual, rsum = follmer._residual_and_sum(g, x, level, t)
        assert all(type(v) is int for v in (*residual, *rsum)) and residual[2] > 0 and rsum[2] > 0
        assert (QuadValue.from_pair(*residual), QuadValue.from_pair(*rsum)) == oracle_residual_and_sum(
            g, grid, level, t
        )
        # a polynomial of degree <= 1 has no residual: S_0 telescopes
        assert follmer._residual_and_sum(RationalPolynomial.of(*coeffs[:2]), x, level, t)[0][:2] == (0, 0)


class TestResidual:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["all_plus", "alt_m", "half_split", "bernoulli:1/2:1"]),
        st.integers(1, 7),
        st.integers(0, 128),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
    )
    def test_linear_is_exact(self, spec, level, j, c0, c1):
        j %= (1 << level) + 1
        t = Dyadic(j, level)
        res = ito_residual(RationalPolynomial.of(c0, c1), fn(spec), level, t)
        assert res == QuadValue(0, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["all_plus", "alt_mk", "neg_half_split", "bernoulli:1/4:2"]),
        st.integers(1, 8),
        st.integers(0, 256),
    )
    def test_square_residual_is_qv_discrepancy(self, spec, level, j):
        j %= (1 << level) + 1
        t = Dyadic(j, level)
        f = fn(spec)
        res = ito_residual(P("0,0,1"), f, level, t)
        assert res == qv_approx(f, level, t) - t.as_fraction()

    @pytest.mark.parametrize("level", [1, 4, 9, 14])
    def test_square_residual_bound_at_one(self, level):
        res = ito_residual(P("0,0,1"), fn("all_plus"), level, 1)
        assert abs(res) == F(1, 1 << level)

    def test_cube_residual_frozen_value(self):
        # closed form at n = 2k: -3(2**k-1)**2/2**(3k+1) - 3(2**k-1)(2**(k+1)-1)/2**(3k+2)*sqrt2,
        # fitted to the exact values (not stated in the paper); the float
        # oracle for level 10 gave -0.1072073155
        res = ito_residual(P("0,0,0,1"), fn("all_plus"), 10, 1)
        assert res == QuadValue(F(-2883, 65536), F(-5859, 131072))
        assert abs(float(res) + 0.1072073155) < 1e-9

    def test_profile_soft_monotone(self):
        # |R| should shrink with depth; tolerate one inversion per series
        for spec in ("all_plus", "alt_m"):
            for coeffs in ("0,0,1", "0,0,0,1", "0,-1,0,0,1"):
                rows = residual_profile(P(coeffs), fn(spec), range(8, 15, 2))
                mags = [abs(float(r)) for _, r in rows]
                violations = sum(1 for a, b in zip(mags, mags[1:]) if b > a)
                if violations:
                    print(f"monotonicity violation: {spec} {coeffs} {mags}")
                assert violations <= 1
