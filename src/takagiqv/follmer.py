"""Pathwise left-endpoint Riemann sums and the second-order residual check.

For an integrand g and integrator x, the level-n Riemann sum along the
dyadic partition is

    sum over [s, s'] in [0, t] of g(x(s)) * (x(s') - x(s))

With rational-coefficient polynomial integrands every term stays in
Q(sqrt(2)), so convergence questions reduce to exact arithmetic.  The
residual of the second-order expansion

    R_n = f(x(t)) - f(x(0)) - sum f'(x(s)) dx - (1/2) sum f''(x(s)) (s'-s)

uses s' - s in place of the quadratic-variation increment (their limits
agree: the qv of every member of this class is t) and measures how fast
the two discretizations converge jointly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .qfield import QuadValue, Rational, _as_fraction, Dyadic
from .quadvar import GridLike, _grid_index, _pairs
from .takagi import pair_value


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending degree."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs: Rational) -> RationalPolynomial:
        return cls(tuple(_as_fraction(c) for c in coeffs))

    @classmethod
    def parse(cls, text: str) -> RationalPolynomial:
        """Comma-separated exact coefficients, e.g. '0,0,1' for u**2."""
        return cls.of(*(Fraction(part.strip()) for part in text.split(",")))

    @property
    def degree(self) -> int:
        return max(len(self.coeffs) - 1, 0)

    def derivative(self) -> RationalPolynomial:
        return RationalPolynomial(
            tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)
        )

    def __call__(self, u: QuadValue | Rational) -> QuadValue:
        if not isinstance(u, QuadValue):
            u = QuadValue(_as_fraction(u), 0)
        acc = QuadValue(0, 0)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc


def _scaled_coeffs(g: RationalPolynomial) -> tuple[list[int], int]:
    """Integer coefficients a_i and common denominator D with g = (1/D) sum a_i u**i."""
    if not g.coeffs:
        return [0], 1
    den = lcm(*(c.denominator for c in g.coeffs))
    return [int(c * den) for c in g.coeffs], den


def _horner_pairs(a: list[int], p: int, q: int, level: int) -> tuple[int, int]:
    """g(v) * D * 2**(level*deg) as an integer pair, v = (p + q*sqrt2)/2**level."""
    deg = len(a) - 1
    hp, hq = a[deg], 0
    for i in range(deg - 1, -1, -1):
        hp, hq = hp * p + 2 * hq * q, hp * q + hq * p
        hp += a[i] << (level * (deg - i))
    return hp, hq


def follmer_sum(
    g: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational
) -> QuadValue:
    """Exact left-endpoint Riemann sum of g(x) dx over [0, t] at level n."""
    t = _grid_index(level, t)
    j_end = t.numerator_at(level)
    p, q = _pairs(x, level)
    a, den = _scaled_coeffs(g)
    deg = len(a) - 1
    pl, ql = p.tolist(), q.tolist()
    sp = sq = 0
    for j in range(j_end):
        gp, gq = _horner_pairs(a, pl[j], ql[j], level)
        dp, dq = pl[j + 1] - pl[j], ql[j + 1] - ql[j]
        sp += gp * dp + 2 * gq * dq
        sq += gp * dq + gq * dp
    scale = den << (level * (deg + 1))
    return QuadValue(Fraction(sp, scale), Fraction(sq, scale))


def time_sum(
    g: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational
) -> QuadValue:
    """sum of g(x(s)) * (s' - s) over [s, s'] in [0, t]: the dt-discretization."""
    t = _grid_index(level, t)
    j_end = t.numerator_at(level)
    p, q = _pairs(x, level)
    a, den = _scaled_coeffs(g)
    deg = len(a) - 1
    pl, ql = p.tolist(), q.tolist()
    sp = sq = 0
    for j in range(j_end):
        gp, gq = _horner_pairs(a, pl[j], ql[j], level)
        sp += gp
        sq += gq
    scale = den << (level * deg + level)
    return QuadValue(Fraction(sp, scale), Fraction(sq, scale))


def _residual_and_sum(
    f: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational
) -> tuple[QuadValue, QuadValue]:
    """The level-n residual and the Riemann sum of f'(x) dx inside it, from one grid."""
    t = _grid_index(level, t)
    j_end = t.numerator_at(level)
    p, q = _pairs(x, level)
    v_t = pair_value(int(p[j_end]), int(q[j_end]), level)
    v_0 = pair_value(int(p[0]), int(q[0]), level)
    f1 = f.derivative()
    grid = (p, q)
    rsum = follmer_sum(f1, grid, level, t)
    residual = f(v_t) - f(v_0) - rsum - time_sum(f1.derivative(), grid, level, t) * Fraction(1, 2)
    return residual, rsum


def ito_residual(
    f: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational
) -> QuadValue:
    """Second-order expansion residual at level n; tends to zero in n."""
    return _residual_and_sum(f, x, level, t)[0]


def residual_profile(
    f: RationalPolynomial, x: GridLike, levels: range, t: Rational = 1
) -> list[tuple[int, QuadValue]]:
    """The residual at each level, for convergence studies."""
    return [(n, ito_residual(f, x, n, t)) for n in levels]
