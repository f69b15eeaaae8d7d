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
dt-sum.  S_0 telescopes or counts the intervals; the kernel computes the
other S_i as exact integer pairs (the coefficients never enter it) in one
pass over the grid's block stream up to t, in chunks of at most _CHUNK
intervals that carry their right endpoint, one chain of powers for both
sums.  The size |a| + 2|b| of a + b sqrt2 bounds both parts and is
submultiplicative, so with X = max|p| + 2 max|q| and W = (max p - min p)
+ 2 (max q - min q) over a chunk of C intervals, a part of its sums is at
most C * X**deg * W, or C * X**deg for the dt-sum.  Each chunk takes the
fewest primes below 2**30 whose product exceeds twice its bound, raises u
to its powers and weights them in int64 modulo each prime (a product of
two residues stays below 2**60), rebuilds each chunk sum by the Chinese
remainder theorem as the symmetric residue (Knuth, TAOCP vol. 2, 4.3.2),
and adds the chunks and the coefficients up in Python ints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import isqrt, lcm, prod
from typing import Iterator

import numpy as np

from .qfield import QuadValue, Rational, _as_fraction, Dyadic
from .quadvar import GridLike, PairGrid, _grid_index, _pairs
from .takagi import TakagiFunction, pair_blocks, pair_value, prefix_blocks


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

#: Grid intervals per chunk of the kernel, the inner slice of each block of
#: the grid stream.  numpy takes its fast floor division by a fixed divisor
#: only along rows of 2**13 or more (measured, numpy 2.4); chunks this size
#: keep the (primes x points) temporaries in cache and out of peak RSS.
_CHUNK = 1 << 14


def _moduli(bound: int) -> list[int]:
    """The fewest primes, _PRIMES first and then the next ones down, whose
    product exceeds 2 * bound."""
    primes: list[int] = []
    for pr in chain(_PRIMES, (c for c in count(_PRIMES[-1] - 2, -2) if _is_prime(c))):
        if prod(primes) > 2 * bound:
            return primes
        primes.append(pr)


def _times(a: np.ndarray, b: np.ndarray, r: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a * b modulo r in out, for stacked (p, q) parts with one line per prime
    or one line of unreduced values (two such lines are multiplied once); out
    and the scratch tmp share no memory with a or b.  x % r is x - x // r * r:
    numpy divides fast by a divisor fixed along a row (np.remainder ~4x slower)."""
    t = tmp[:, : max(a.shape[1], b.shape[1])]
    for part, c in enumerate((b, b[::-1])):
        np.multiply(a, c, out=t)  # (ap*bp, aq*bq), then (ap*bq, aq*bp)
        if part == 0:
            t[1] <<= 1
        x = np.add(t[0], t[1], out=t[0])
        np.floor_divide(x, r, out=out[part])
        out[part] *= r
        np.subtract(x, out[part], out=out[part])
    return out


def _chunks(x: GridLike, level: int, n: int) -> Iterator[PairGrid]:
    """Points 0 .. n of the level grid of x in chunks of at most _CHUNK
    intervals that share endpoints; blocks past n are never built."""
    blocks = x._blocks(level) if isinstance(x, TakagiFunction) else pair_blocks(*_pairs(x, level))
    for p, q in prefix_blocks(blocks, level, n):
        for lo in range(0, max(len(p) - 1, 1), _CHUNK):
            yield p[lo : lo + _CHUNK + 1], q[lo : lo + _CHUNK + 1]


def _power_sums(
    x: GridLike, level: int, t: Dyadic | Rational, deg_dx: int, deg_dt: int
) -> tuple[tuple[int, int], tuple[int, int], list[list[int]], list[list[int]]]:
    """The pairs of x(0) and x(t), [S_0 .. S_deg_dx] weighted by the increments
    (S_0 telescopes) and [S_0 .. S_deg_dt] by 1 (S_0 = n), from one pass over [0, t]."""
    n = _grid_index(level, t).numerator_at(level)
    dx, dt = ([[0, 0] for _ in range(deg)] for deg in (deg_dx, deg_dt))
    x0 = None
    # one scratch for every chunk: fresh arrays of chunk size take new pages
    buf = np.empty((5, 2, 0, 0), dtype=np.int64)
    for vp, vq in _chunks(x, level, n):
        x0 = x0 or (int(vp[0]), int(vq[0]))
        xt = int(vp[-1]), int(vq[-1])
        lo_p, hi_p, lo_q, hi_q = int(vp.min()), int(vp.max()), int(vq.min()), int(vq.max())
        big = max(-lo_p, hi_p) + 2 * max(-lo_q, hi_q)
        w = (hi_p - lo_p) + 2 * (hi_q - lo_q) if deg_dx else 0
        size = len(vp) - 1
        # at least one prime, also for a chunk of one point or of zeros
        primes = _moduli(max(1, size * max(big**deg_dx * w, big**deg_dt)))
        r = np.array(primes, dtype=np.int64)[:, None]
        m = prod(primes)
        basis = [m // pr * pow(m // pr, -1, pr) for pr in primes]

        def add(s: list[int], v: np.ndarray) -> None:
            """Add the chunk sums of v's parts, residues per prime or exact, to s."""
            for part, res in enumerate(np.broadcast_to(v.sum(axis=-1), (2, len(primes))).tolist()):
                c = sum(si * e for si, e in zip(res, basis)) % m
                s[part] += c - m if 2 * c > m else c

        if buf.shape[2] < len(primes):
            buf = np.empty((5, 2, len(primes), min(n, _CHUNK) + 1), dtype=np.int64)
        v, d, *pairs, tmp = (row[:, : len(primes), : size + 1] for row in buf)
        v = v[:, :1]
        v[0, 0], v[1, 0] = vp, vq
        # entries below 2**30 in size keep every product in int64 unreduced
        if max(-lo_p, hi_p, -lo_q, hi_q) >= 1 << 30:
            v = v % r
        h = u = v[..., :-1]
        d = np.subtract(v[..., 1:], u, out=d[:, : v.shape[1], :size])
        # the powers alternate between two pairs; a weighted sum uses the other
        pairs, tmp = [pair[..., :size] for pair in pairs], tmp[..., :size]
        for i in range(max(deg_dx, deg_dt)):
            if i:
                h = _times(h, u, r, pairs[i % 2], tmp)
            if i < deg_dx:
                add(dx[i], _times(h, d, r, pairs[1 - i % 2], tmp))
            if i < deg_dt:
                add(dt[i], h)
    return x0, xt, [[xt[0] - x0[0], xt[1] - x0[1]], *dx], [[n, 0], *dt]


def _riemann_value(g: RationalPolynomial, sums: list[list[int]], level: int) -> QuadValue:
    """The level sum of g(x(s)) * w over [s, s'] in [0, t] from [S_0, ..., S_deg]."""
    a, den = _scaled_coeffs(g)
    sp = sq = 0
    for ai, (s_p, s_q) in zip(a, sums):  # Horner in 2**level
        sp, sq = (sp << level) + ai * s_p, (sq << level) + ai * s_q
    scale = den << (level * len(a))
    return QuadValue(Fraction(sp, scale), Fraction(sq, scale))


def follmer_sum(g: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Exact left-endpoint Riemann sum of g(x) dx over [0, t] at level n."""
    return _riemann_value(g, _power_sums(x, level, t, g.degree, 0)[2], level)


def time_sum(g: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """sum of g(x(s)) * (s' - s) over [s, s'] in [0, t]: the dt-discretization."""
    return _riemann_value(g, _power_sums(x, level, t, 0, g.degree)[3], level)


def _residual_and_sum(
    f: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational
) -> tuple[QuadValue, QuadValue]:
    """The level-n residual and the Riemann sum of f'(x) dx inside it, from one pass."""
    f1, f2 = f.derivative(), f.derivative().derivative()
    x0, xt, dx, dt = _power_sums(x, level, t, f1.degree, f2.degree)
    rsum = _riemann_value(f1, dx, level)
    residual = (f(pair_value(*xt, level)) - f(pair_value(*x0, level)) - rsum
                - _riemann_value(f2, dt, level) * Fraction(1, 2))
    return residual, rsum


def ito_residual(f: RationalPolynomial, x: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Second-order expansion residual at level n; tends to zero in n."""
    return _residual_and_sum(f, x, level, t)[0]


def residual_profile(
    f: RationalPolynomial, x: GridLike, levels: range, t: Rational = 1
) -> list[tuple[int, QuadValue]]:
    """The residual at each level, for convergence studies."""
    return [(n, ito_residual(f, x, n, t)) for n in levels]
