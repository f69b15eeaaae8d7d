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

Both sums run through one multi-modular kernel.  With g = (1/D) sum a_i u**i
and the grid point x_j = u_j/2**n, u_j = p_j + q_j sqrt2, the level-n sum is

    sum_j g(x_j) w_j/2**n = sum_i a_i 2**(n*(deg-i)) S_i / (D * 2**(n*(deg+1)))
    with S_i = sum_j u_j**i w_j,

where w_j is the increment u_{j+1} - u_j for the Riemann sum and 1 for the
dt-sum.  S_0 telescopes; the kernel computes S_1 .. S_deg as exact integer
pairs, so the coefficients, however large, never enter it.  The size
|a| + 2|b| of a + b sqrt2 bounds both parts and is submultiplicative, so
with X = max|p| + 2 max|q| over the grid and W the same size of the largest
increment (or 1), every part of a block sum over C points is at most
C * X**deg * W.  The kernel takes just enough primes below 2**30 for their
product to exceed twice that bound, raises u to its powers and weights them
in numpy int64 modulo each prime (a product of two residues stays below
2**60), rebuilds each block sum by the Chinese remainder theorem as the
symmetric residue (Knuth, TAOCP vol. 2, 4.3.2), and adds the blocks and the
coefficients up in Python ints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import isqrt, lcm, prod

import numpy as np

from .qfield import QuadValue, Rational, _as_fraction, Dyadic
from .quadvar import GridLike, _grid_index, _pairs
from .takagi import pair_value


#: Largest exponent size taken in a coefficient such as 1e3000.
MAX_EXPONENT = 10**4
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending degree."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs: Rational) -> RationalPolynomial:
        return cls(tuple(_as_fraction(c) for c in coeffs))

    @classmethod
    def parse(cls, text: str) -> RationalPolynomial:
        """Comma-separated exact coefficients, e.g. '0,0,1' for u**2.

        Each is read by ``Fraction``, which also takes decimal and exponent
        notation; an exponent above MAX_EXPONENT in size is refused, since
        ``Fraction`` expands it into a power of ten first.
        """
        parts = [part.strip() for part in text.split(",")]
        for part in parts:
            exp = _EXPONENT.search(part)
            digits = exp[1].replace("_", "").lstrip("0") if exp else ""
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ValueError(f"coefficient exponent above {MAX_EXPONENT} in size: {part[:40]!r}")
        try:
            return cls.of(*(Fraction(part) for part in parts))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in polynomial {text!r}") from None

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


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


#: The largest primes below 2**30, descending.  Residues stay below 2**30, so
#: a product of two stays below 2**60 and every kernel step fits in int64.
_PRIMES = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717,
    1073741689, 1073741671, 1073741663, 1073741651, 1073741621, 1073741567,
    1073741561, 1073741527, 1073741503, 1073741477,
)

#: Grid points per block of the kernel.  numpy takes its fast floor division
#: by a fixed divisor only along rows of 2**13 or more (measured, numpy 2.4);
#: blocks this size keep the (primes x points) temporaries in cache and out
#: of peak RSS.
_CHUNK = 1 << 14


def _moduli(bound: int) -> list[int]:
    """The fewest primes, _PRIMES first and then the next ones down, whose
    product exceeds 2 * bound."""
    further = (c for c in count(_PRIMES[-1] - 2, -2) if _is_prime(c))
    primes, product = [], 1
    for pr in chain(_PRIMES, further):
        if product > 2 * bound:
            break
        primes.append(pr)
        product *= pr
    return primes


def _mod(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x % r, through the floor division that numpy runs fast for a divisor
    fixed along each row (np.remainder divides in hardware, ~4x slower)."""
    t = x // r
    t *= r
    return np.subtract(x, t, out=t)


def _power_sums(
    p: np.ndarray, q: np.ndarray, n: int, deg: int, increments: bool
) -> list[list[int]]:
    """[S_1, ..., S_deg] as exact integer pairs: S_i = sum over j < n of
    u_j**i * w_j, u_j = p_j + q_j*sqrt2, w_j = u_{j+1} - u_j when
    ``increments``, else 1.  See the module docstring."""
    sums = [[0, 0] for _ in range(deg)]
    if n == 0 or deg == 0:
        return sums
    extra = 1 if increments else 0  # the right end of the last increment
    lo_p, hi_p = int(p[:n + extra].min()), int(p[:n + extra].max())
    lo_q, hi_q = int(q[:n + extra].min()), int(q[:n + extra].max())
    x = max(-lo_p, hi_p) + 2 * max(-lo_q, hi_q)
    w = (hi_p - lo_p) + 2 * (hi_q - lo_q) if increments else 1
    primes = _moduli(min(n, _CHUNK) * x**deg * w)
    r = np.array(primes, dtype=np.int64)[:, None]
    m = prod(primes)
    basis = [m // pr * pow(m // pr, -1, pr) for pr in primes]

    def exact(t: np.ndarray) -> int:
        """The block sum of t, residues per prime or exact, as an integer."""
        s = np.broadcast_to(t.sum(axis=-1), (len(primes),)).tolist()
        v = sum(si * e for si, e in zip(s, basis)) % m
        return v - m if 2 * v > m else v

    # entries below 2**30 in size keep every product in int64 unreduced
    reduce = max(-lo_p, hi_p, -lo_q, hi_q) >= 1 << 30
    for lo in range(0, n, _CHUNK):
        size = min(_CHUNK, n - lo)
        vp, vq = p[lo:lo + size + extra], q[lo:lo + size + extra]
        if reduce:
            vp, vq = _mod(vp, r), _mod(vq, r)
        up, uq = hp, hq = vp[..., :size], vq[..., :size]
        if increments:
            dp, dq = vp[..., 1:] - up, vq[..., 1:] - uq
        for i in range(deg):
            if i:
                hp, hq = _mod(hp * up + 2 * hq * uq, r), _mod(hp * uq + hq * up, r)
            if increments:
                tp, tq = _mod(hp * dp + 2 * hq * dq, r), _mod(hp * dq + hq * dp, r)
            else:
                tp, tq = hp, hq
            sums[i][0] += exact(tp)
            sums[i][1] += exact(tq)
    return sums


def _riemann_sum(
    g: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational, increments: bool
) -> QuadValue:
    """sum of g(x(s)) * w over [s, s'] in [0, t], with w = x(s') - x(s) when
    ``increments``, else s' - s: the kernel of the module docstring."""
    t = _grid_index(level, t)
    n = t.numerator_at(level)
    p, q = _pairs(x, level)
    a, den = _scaled_coeffs(g)
    deg = len(a) - 1
    # S_0 telescopes
    s0 = [int(p[n]) - int(p[0]), int(q[n]) - int(q[0])] if increments else [n, 0]
    sums = [s0, *_power_sums(p, q, n, deg, increments)]
    sp, sq = (
        sum(ai * s[part] << (level * (deg - i)) for i, (ai, s) in enumerate(zip(a, sums)))
        for part in (0, 1)
    )
    scale = den << (level * len(a))
    return QuadValue(Fraction(sp, scale), Fraction(sq, scale))


def follmer_sum(
    g: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational
) -> QuadValue:
    """Exact left-endpoint Riemann sum of g(x) dx over [0, t] at level n."""
    return _riemann_sum(g, x, level, t, increments=True)


def time_sum(
    g: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational
) -> QuadValue:
    """sum of g(x(s)) * (s' - s) over [s, s'] in [0, t]: the dt-discretization."""
    return _riemann_sum(g, x, level, t, increments=False)


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
