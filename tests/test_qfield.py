from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from takagiqv import qfield
from takagiqv.qfield import (
    SQRT2, Dyadic, QuadValue, decimal_column, decimal_pair, decimal_ratio, pow2_half, sign_pair,
)
from takagiqv.schemes import parse_scheme
from takagiqv.takagi import TakagiFunction

from conftest import oracle_decimal

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=64)
quads = st.builds(QuadValue, fracs, fracs)
nonzero_quads = quads.filter(bool)
# signed values with wide numerators over any denominator, and dyadic ones,
# some rational, so that exact ties come up
wide_fracs = st.fractions(min_value=-(2 ** 70), max_value=2 ** 70, max_denominator=2 ** 40)
dyadic_fracs = st.builds(
    lambda num, level: F(num, 1 << level), st.integers(-(2 ** 40), 2 ** 40), st.integers(0, 30)
)
wide_quads = st.one_of(
    st.builds(QuadValue, wide_fracs, wide_fracs),
    st.builds(QuadValue, dyadic_fracs, st.just(F(0))),
    st.builds(QuadValue, dyadic_fracs, dyadic_fracs),
)


class TestArithmetic:
    def test_conjugate_product(self):
        assert QuadValue(1, 1) * QuadValue(1, -1) == QuadValue(-1, 0)

    def test_defining_relation(self):
        assert SQRT2 * SQRT2 == QuadValue(2, 0)

    def test_scalar_distribution(self):
        v = QuadValue(F(1, 2), F(1, 4)) * QuadValue(2, 0)
        assert v == QuadValue(1, F(1, 2))

    @given(quads, quads, quads)
    def test_mul_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(quads, quads, quads)
    def test_distributive(self, u, v, w):
        assert u * (v + w) == u * v + u * w

    @given(nonzero_quads)
    def test_multiplicative_inverse(self, u):
        assert u * (QuadValue(1, 0) / u) == QuadValue(1, 0)

    @given(quads, nonzero_quads)
    def test_div_roundtrip(self, u, v):
        assert (u / v) * v == u

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadValue(1, 0) / QuadValue(0, 0)

    def test_pow(self):
        assert SQRT2 ** 4 == QuadValue(4, 0)
        assert QuadValue(1, 1) ** -1 == QuadValue(-1, 1)  # 1/(1+s2) = s2 - 1


class TestOrder:
    def test_rational_vs_sqrt2(self):
        assert QuadValue(F(7, 5), 0).compare(SQRT2) < 0

    def test_equal(self):
        assert QuadValue(0, F(3, 2)).compare(QuadValue(0, F(3, 2))) == 0

    def test_peak_above_one(self):
        assert QuadValue(F(2, 3), F(1, 3)).compare(QuadValue(1, 0)) > 0

    @given(quads, quads)
    def test_uniqueness(self, u, v):
        # equal as values iff componentwise equal
        assert (u.compare(v) == 0) == (u.a == v.a and u.b == v.b)

    @given(quads, quads)
    def test_compare_matches_decimal(self, u, v):
        # bounded components: distinct values differ by far more than 1e-25
        du, dv = Decimal(u.decimal(25)), Decimal(v.decimal(25))
        c = u.compare(v)
        assert (du < dv) == (c < 0) and (du > dv) == (c > 0)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_sign_pair_matches_float(self, a, b):
        s = sign_pair(a, b)
        approx = a + b * 2 ** 0.5
        if abs(approx) > 1e-9:
            assert s == (1 if approx > 0 else -1)


class TestDecimal:
    def test_peak_value(self):
        assert QuadValue(F(2, 3), F(1, 3)).decimal(6) == "1.138071"

    def test_half(self):
        assert QuadValue(F(1, 2), 0).decimal(3) == "0.500"

    def test_oscillation_value(self):
        assert QuadValue(F(5, 6), F(2, 3)).decimal(6) == "1.776142"

    def test_round_half_even(self):
        assert QuadValue(F(1, 8), 0).decimal(2) == "0.12"
        assert QuadValue(F(3, 8), 0).decimal(2) == "0.38"
        assert QuadValue(F(-1, 8), 0).decimal(2) == "-0.12"
        assert [decimal_pair(p, 0, 8, 2) for p in (1, 3, -1)] == ["0.12", "0.38", "-0.12"]

    def test_negative(self):
        assert QuadValue(0, -1).decimal(4) == "-1.4142"

    @given(wide_quads, st.integers(1, 20))
    def test_matches_oracle(self, u, digits):
        want = oracle_decimal(u, digits)
        assert u.decimal(digits) == want
        d = u.a.denominator * u.b.denominator
        assert decimal_pair(int(u.a * d), int(u.b * d), d, digits) == want

    @given(wide_quads, wide_quads.filter(bool), st.integers(1, 20))
    def test_ratio_matches_division(self, x, y, digits):
        assert decimal_ratio(x.pair(), y.pair(), digits) == (x / y).decimal(digits)

    @pytest.mark.parametrize("y", [QuadValue(1, 1), QuadValue(F(-1, 3), F(5, 7)), QuadValue(0, F(-2, 9))])
    def test_ratio_with_negative_norm(self, y):
        assert y.a * y.a - 2 * y.b * y.b < 0
        for x in (QuadValue(F(3, 8), F(-1, 16)), QuadValue(F(-7, 3), 0), QuadValue(0, 0)):
            for digits in range(1, 21):
                assert decimal_ratio(x.pair(), y.pair(), digits) == (x / y).decimal(digits)

    def test_ratio_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            decimal_ratio((1, 0, 1), (0, 0, 1), 3)

    def test_non_dyadic(self):
        u = QuadValue(F(2, 3), F(1, 7))
        assert u.decimal(9) == oracle_decimal(u, 9) == "0.868697176"
        assert decimal_pair(14, 3, 21, 9) == "0.868697176"

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 10 ** 6 + 3, -1, -2, -8])
    def test_exact_ties(self, k):
        # (2k+1) / (2*10**digits) lies halfway between two printed values
        for digits in range(1, 21):
            u = QuadValue(F(2 * k + 1, 2 * 10 ** digits), 0)
            want = oracle_decimal(u, digits)
            assert u.decimal(digits) == decimal_pair(2 * k + 1, 0, 2 * 10 ** digits, digits) == want

    def test_level_26_pair(self):
        # all_plus-sized values on the 2**-26 grid, both components near 2**28
        p, q = (1 << 28) - 12345, -(1 << 27) + 6789
        u = QuadValue(F(p, 1 << 26), F(q, 1 << 26))
        for digits in (1, 12, 20):
            assert decimal_pair(p, q, 1 << 26, digits) == u.decimal(digits) == oracle_decimal(u, digits)

    def test_digits_must_be_positive(self):
        for digits in (0, -3):
            with pytest.raises(ValueError):
                QuadValue(1, 1).decimal(digits)
            with pytest.raises(ValueError):
                decimal_pair(1, 1, 1, digits)

    @given(quads)
    def test_decimal_close_to_float(self, u):
        assert abs(float(Decimal(u.decimal(15))) - float(u)) < 1e-9

    def test_floor(self):
        assert QuadValue(0, 1).floor() == 1
        assert QuadValue(0, -1).floor() == -2
        assert QuadValue(F(7, 2), 0).floor() == 3
        assert QuadValue(-3, 2).floor() == -1  # 2*sqrt2 - 3 = -0.17...


wide_ints = st.integers(-(2 ** 80), 2 ** 80)
nonzero_ints = wide_ints.filter(bool)
# (p, q, d) with d > 0, some with a negative norm p**2 - 2*q**2
triples = st.tuples(wide_ints, wide_ints, st.integers(1, 2 ** 80))


class TestTriple:
    """QuadValue holds (p, q, d) in lowest terms with d > 0: one triple per value."""

    @given(wide_ints, wide_ints, nonzero_ints)
    def test_from_pair_lowest_terms(self, p, q, d):
        P, Q, D = QuadValue.from_pair(p, q, d).pair()
        assert all(type(x) is int for x in (P, Q, D))
        assert D > 0 and gcd(P, Q, D) == 1
        assert (P * d, Q * d) == (p * D, q * D)

    @given(wide_ints, wide_ints, nonzero_ints, nonzero_ints)
    def test_scaled_triples_equal(self, p, q, d, k):
        u, v = QuadValue.from_pair(p, q, d), QuadValue.from_pair(k * p, k * q, k * d)
        assert u == v and hash(u) == hash(v) and u.pair() == v.pair()

    @given(wide_ints, nonzero_ints)
    def test_rational_value_hashes_as_its_fraction(self, p, d):
        # equal keys of any type are one key: a rational QuadValue hashes as its Fraction
        u, r = QuadValue.from_pair(p, 0, d), F(p, d)
        assert u == r and hash(u) == hash(r)
        assert len({r, u}) == 1 and {r: "fraction", u: "quad"} == {r: "quad"}

    def test_mixed_keys_in_a_set_and_a_dict(self):
        keys = [1, F(1), QuadValue(1, 0), F(1, 2), QuadValue(F(1, 2), 0), QuadValue.from_pair(2, 0, 4),
                -3, QuadValue(-3), QuadValue(0, 1), QuadValue(F(1, 2), 1), QuadValue.from_pair(1, 2, 2)]
        assert len(set(keys)) == 5
        table = {k: i for i, k in enumerate(keys)}  # a later equal key keeps the first key, takes the new value
        assert table == {1: 2, F(1, 2): 5, -3: 7, QuadValue(0, 1): 8, QuadValue(F(1, 2), 1): 10}
        assert table[QuadValue(1, 0)] == table[1] and table[F(-6, 2)] == 7

    @given(wide_ints, wide_ints, nonzero_ints)
    def test_components(self, p, q, d):
        u = QuadValue.from_pair(p, q, d)
        assert (u.a, u.b) == (F(p, d), F(q, d))
        assert QuadValue(u.a, u.b).pair() == u.pair()

    @given(triples, triples.filter(lambda y: y[0] or y[1]), st.integers(1, 30))
    def test_ratio_matches_division(self, x, y, digits):
        want = (QuadValue.from_pair(*x) / QuadValue.from_pair(*y)).decimal(digits)
        assert decimal_ratio(x, y, digits) == want

    @given(quads, quads)
    def test_arithmetic_matches_fractions(self, u, v):
        (a, b), (c, d) = (u.a, u.b), (v.a, v.b)
        assert ((u + v).a, (u + v).b) == (a + c, b + d)
        assert ((u - v).a, (u - v).b) == (a - c, b - d)
        assert ((u * v).a, (u * v).b) == (a * c + 2 * b * d, a * d + b * c)

    @given(quads, fracs, st.integers(-20, 20))
    def test_rational_operand_is_its_triple(self, u, r, n):
        for x in (r, n):
            w = QuadValue(x, 0)
            assert (u + x, x + u, u - x, x - u, u * x, x * u) == (u + w, w + u, u - w, w - u, u * w, w * u)
            assert (u == x) == (u == w) == (u.b == 0 and u.a == x)
            assert u.compare(x) == u.compare(w) and (u < x) == (u < w)
            if x:
                assert u / x == u / w
            if u:
                assert x / u == w / u

    def test_zero_denominator(self):
        for p, q in ((1, 0), (0, 1), (0, 0)):
            with pytest.raises(ZeroDivisionError):
                QuadValue.from_pair(p, q, 0)

    def test_numpy_ints_become_python_ints(self):
        u = QuadValue.from_pair(np.int64(2 ** 62), np.int64(0), np.int64(1))
        assert all(type(x) is int for x in u.pair())
        assert (u * u).pair() == (2 ** 124, 0, 1)

    def test_constructor_reduces(self):
        assert QuadValue(F(1, 6), F(-1, 4)).pair() == (2, -3, 12)
        assert QuadValue(F(4, 6), 0).pair() == (2, 0, 3)
        assert QuadValue().pair() == (0, 0, 1)

    def test_other_operands(self):
        u = QuadValue(1, 1)
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__eq__", "__lt__"):
            assert getattr(u, op)(0.5) is NotImplemented
        assert (QuadValue(1, 0) == "1") is False
        with pytest.raises(TypeError):
            u < 0.5
        with pytest.raises(TypeError):
            u.compare(0.5)

    @pytest.mark.parametrize("u,text,rep", [
        (QuadValue(0, 0), "0", "QuadValue(Fraction(0, 1), Fraction(0, 1))"),
        (QuadValue(F(-7, 3), 0), "-7/3", "QuadValue(Fraction(-7, 3), Fraction(0, 1))"),
        (QuadValue(0, -1), "-1*sqrt(2)", "QuadValue(Fraction(0, 1), Fraction(-1, 1))"),
        (QuadValue(0, F(3, 2)), "3/2*sqrt(2)", "QuadValue(Fraction(0, 1), Fraction(3, 2))"),
        (QuadValue(F(1, 2), F(-3, 4)), "1/2 - 3/4*sqrt(2)", "QuadValue(Fraction(1, 2), Fraction(-3, 4))"),
        (QuadValue(-2, 1), "-2 + 1*sqrt(2)", "QuadValue(Fraction(-2, 1), Fraction(1, 1))"),
    ])
    def test_str_and_repr(self, u, text, rep):
        assert (str(u), repr(u)) == (text, rep)


# int64 entries of every bit length, so that rows of every magnitude come up
int64s = st.integers(0, 63).flatmap(lambda k: st.integers(-(1 << k), (1 << k) - 1))
# exact ties of 12-digit decimals: q = 0 and p an odd multiple of 2**(bits - 13)
tie_pairs = st.integers(13, 62).flatmap(
    lambda bits: st.tuples(st.integers(-(1 << (74 - bits)), (1 << (74 - bits)) - 1).map(
        lambda m: (2 * m + 1) << (bits - 13)), st.just(bits)))


def _column(pairs, bits, digits=12):
    p, q = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    return decimal_column(p, q, bits, digits)


@pytest.mark.filterwarnings("error")
class TestDecimalColumn:
    @given(st.lists(st.tuples(int64s, int64s), min_size=1, max_size=40), st.integers(0, 62))
    def test_matches_decimal_pair(self, pairs, bits):
        assert _column(pairs, bits) == [decimal_pair(p, q, 1 << bits, 12) for p, q in pairs]

    @given(st.lists(st.tuples(int64s, int64s), min_size=1, max_size=10), st.integers(0, 62),
           st.integers(1, 22))
    def test_matches_decimal_pair_at_any_digits(self, pairs, bits, digits):
        want = [decimal_pair(p, q, 1 << bits, digits) for p, q in pairs]
        assert _column(pairs, bits, digits) == want

    @given(st.lists(tie_pairs, min_size=1, max_size=20))
    def test_exact_ties(self, ties):
        for p, bits in ties:
            assert _column([(p, 0), (p, 1), (p, -1)], bits) == [
                decimal_pair(p, q, 1 << bits, 12) for q in (0, 1, -1)]

    def test_ties_round_half_even(self):
        # 1/2**13 = 0.0001220703125 and 3/2**13 = 0.0003662109375
        assert _column([(1, 0), (3, 0), (-1, 0), (-3, 0)], 13) == [
            "0.000122070312", "0.000366210938", "-0.000122070312", "-0.000366210938"]

    @pytest.mark.parametrize("bits", [13, 30, 50])
    def test_near_ties(self, bits):
        # a*a - 2*b*b = +-1, so b*sqrt(2) - a is within 1/(2b) of zero and
        # (t - a) + b*sqrt(2) lies just off the tie t: closer than float64 resolves
        pell = [(1, 1)]
        while pell[-1][0] < 1 << 60:
            a, b = pell[-1]
            pell.append((a + 2 * b, a + b))
        rows = [(s * ((t << (bits - 13)) - a), s * b)
                for a, b in pell for t in (1, 3, -5) for s in (1, -1)]
        assert _column(rows, bits) == [decimal_pair(p, q, 1 << bits, 12) for p, q in rows]

    @pytest.mark.parametrize("bits", [44, 52, 62])
    def test_negative_values_round_to_unsigned_zero(self, bits):
        pairs = [(-1, 0), (0, -1), (-(1 << (bits - 44)), 0), (1, -1), (0, 0)]
        got = _column(pairs, bits)
        assert got == ["0.000000000000"] * len(pairs)
        assert got == [decimal_pair(p, q, 1 << bits, 12) for p, q in pairs]

    def test_large_values_fall_back(self, monkeypatch):
        calls = []

        def counted(p, q, den, digits):
            calls.append((p, q))
            return decimal_pair(p, q, den, digits)

        monkeypatch.setattr(qfield, "decimal_pair", counted)
        extremes = [((1 << 63) - 1, 0), (-(1 << 63), (1 << 63) - 1), (1 << 50, 0), (3, 5)]
        got = _column(extremes, 0)
        # x = value * 10**12 is at least 2**49 on the first three rows, well inside on the last
        assert calls == extremes[:3]
        assert got == [decimal_pair(p, q, 1, 12) for p, q in extremes]

    def test_grid_rows_mostly_screened(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qfield, "decimal_pair", lambda *args: calls.append(args) or decimal_pair(*args))
        p, q = TakagiFunction(parse_scheme("bernoulli:1/2:7")).grid_pairs(12)
        got = decimal_column(p, q, 12, 12)
        assert len(calls) < len(p) // 100
        assert got == [decimal_pair(a, b, 1 << 12, 12) for a, b in zip(p.tolist(), q.tolist())]

    @pytest.mark.parametrize("digits", [0, 23])
    def test_digits_range(self, digits):
        with pytest.raises(ValueError):
            _column([(1, 1)], 3, digits)


class TestPow2Half:
    @pytest.mark.parametrize("e", range(-9, 10))
    def test_square(self, e):
        assert pow2_half(e) * pow2_half(e) == QuadValue(F(2) ** e, 0)

    def test_odd_values(self):
        assert pow2_half(-1) == QuadValue(0, F(1, 2))
        assert pow2_half(-3) == QuadValue(0, F(1, 4))
        assert pow2_half(1) == SQRT2

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_multiplicative(self, e1, e2):
        assert pow2_half(e1) * pow2_half(e2) == pow2_half(e1 + e2)


class TestDyadic:
    def test_normalization(self):
        d = Dyadic(4, 4)
        assert (d.num, d.exp) == (1, 2)
        assert Dyadic(0, 7).exp == 0

    def test_from_fraction(self):
        assert Dyadic.from_fraction(F(5, 16)) == Dyadic(5, 4)
        with pytest.raises(ValueError):
            Dyadic.from_fraction(F(1, 3))

    def test_numerator_at(self):
        assert Dyadic(5, 4).numerator_at(6) == 20
        with pytest.raises(ValueError):
            Dyadic(5, 4).numerator_at(2)

    def test_ordering_and_str(self):
        assert Dyadic(1, 1) < Dyadic(3, 2)
        assert str(Dyadic(5, 4)) == "5/16"
        assert str(Dyadic(3, 0)) == "3"

    @given(st.integers(-(2 ** 70), 2 ** 70), st.integers(0, 80))
    def test_normalized(self, num, exp):
        d = Dyadic(num, exp)
        assert d.as_fraction() == F(num, 1 << exp)
        assert d.num % 2 == 1 or d.exp == 0
