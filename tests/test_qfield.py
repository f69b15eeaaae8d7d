from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from takagiqv.qfield import SQRT2, Dyadic, QuadValue, decimal_pair, decimal_ratio, pow2_half, sign_pair

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
