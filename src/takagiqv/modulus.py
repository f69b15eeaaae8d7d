"""Modulus of continuity: the sqrt(h)-scale envelope and its witnesses.

With nu(h) the integer part of log2(1/h), the envelope is

    omega(h) = (1 + 1/sqrt2) * h * 2**(nu(h)/2) + (1/3)(sqrt8 + 2) * 2**(-nu(h)/2)

an O(sqrt h) function, exact in Q(sqrt(2)) for rational h.  Increments of
the all-plus function never exceed omega(h); increments of any member of
the class never exceed sqrt2 * omega(h).  Both bounds are sharp along the
witness steps h_n = (2/3) * 2**-n: from t = 0 for the all-plus function,
and across t_n = 1/2 - (1/3) * 2**-n for the negated half-split function.

nu is decided by exact integer comparison, so h at an exact power of two
gets nu(2**-n) = n even though omega jumps there.

For h = a/d, omega(h) is one integer pair over 3d * 2**(nu//2), doubled
for even nu, read off from a, d and the parity of nu.  A scan report keeps
its largest increment as the integer pair (p, q) over 2**level, and the
ratio x / omega is rendered from integers as x * conj(omega) / norm(omega)
(``qfield.decimal_ratio``), as are the witness ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .gridscan import abs_extremum, block_extrema
from .qfield import SQRT2, Dyadic, QuadValue, Rational, _as_fraction, decimal_ratio
from .schemes import AllPlus, NegHalfSplit
from .takagi import TakagiFunction, pair_blocks, pair_value, thirds_value


def nu(h: Rational) -> int:
    """The unique n >= 0 with 2**-(n+1) < h <= 2**-n, by integer comparison."""
    h = _as_fraction(h)
    p, q = h.numerator, h.denominator
    if not 0 < p <= q:
        raise ValueError(f"h={h} outside (0, 1]")
    n = max(q.bit_length() - p.bit_length(), 0)
    while (p << n) > q:
        n -= 1
    while (p << (n + 1)) <= q:
        n += 1
    return n


def omega(h: Rational) -> QuadValue:
    """The continuity envelope at h, exact in Q(sqrt(2)).

    For h = a/d in lowest terms and s = 3a * 4**(nu//2), omega(h) is the
    one integer pair

        (2s + 4d + (s + 4d) sqrt2) / (3d * 2**(nu//2 + 1))   for even nu,
        (s + 2d + (s + d) sqrt2) / (3d * 2**(nu//2))          for odd nu.
    """
    h = _as_fraction(h)
    n = nu(h)
    a, d = h.numerator, h.denominator
    k = n // 2
    s = 3 * a << 2 * k
    if n % 2:
        p, q, den = s + 2 * d, s + d, 3 * d << k
    else:
        p, q, den = 2 * s + 4 * d, s + 4 * d, 3 * d << (k + 1)
    return QuadValue(Fraction(p, den), Fraction(q, den))


@dataclass(frozen=True)
class ModulusReport:
    """Largest grid increment at step h versus the envelope omega(h).

    The increment is kept as the integer pair (p, q) of
    (p + q*sqrt(2)) / 2**level, first reached from t = tie / 2**level;
    ``scan_max``, ``witness_t`` and ``ratio_decimal`` are built from these
    integers when asked for.
    """

    h: Fraction
    omega: QuadValue
    level: int
    pair: tuple[int, int]
    tie: int

    @property
    def nu(self) -> int:
        return nu(self.h)

    @property
    def scan_max(self) -> QuadValue:
        return pair_value(*self.pair, self.level)

    @property
    def witness_t(self) -> Fraction:
        return Fraction(self.tie, 1 << self.level)

    @property
    def ratio_decimal(self) -> str:
        """scan_max / omega to 8 places."""
        return decimal_ratio((*self.pair, 1 << self.level), self.omega.pair(), 8)


def _lag_blocks(p: np.ndarray, q: np.ndarray, j: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The increments p[i+j] - p[i], q[i+j] - q[i] in the block layout of ``pair_blocks``.

    Every block is written into the same scratch rows, so no full-size
    increment array is formed.
    """
    n = len(p) - j
    buf = None
    for off, bp, bq in pair_blocks(p[:n], q[:n]):
        w = len(bp)
        if buf is None:
            buf = np.empty((2, w), dtype=np.int64)
        np.subtract(p[off + j : off + j + w], bp, out=buf[0, :w])
        np.subtract(q[off + j : off + j + w], bq, out=buf[1, :w])
        yield off, buf[0, :w], buf[1, :w]


def _scan_report(p: np.ndarray, q: np.ndarray, grid_level: int, j: int) -> ModulusReport:
    h = Fraction(j, 1 << grid_level)
    mp, mq, ties = abs_extremum(*block_extrema(_lag_blocks(p, q, j)))
    return ModulusReport(h, omega(h), grid_level, (mp, mq), ties[0])


def modulus_scan(fn: TakagiFunction, grid_level: int, h: Dyadic | Rational) -> ModulusReport:
    """Exact max of |x(t + h) - x(t)| over grid t with t + h <= 1."""
    if not isinstance(h, Dyadic):
        h = Dyadic.from_fraction(_as_fraction(h))
    if h.exp > grid_level or not 0 < h.as_fraction() <= 1:
        raise ValueError(f"h={h} is not a positive step on the level-{grid_level} grid")
    p, q = fn.grid_pairs(grid_level)
    return _scan_report(p, q, grid_level, h.numerator_at(grid_level))


def sweep_all_steps(fn: TakagiFunction, grid_level: int) -> list[ModulusReport]:
    """Reports for every step h = j/2**grid_level, j = 1..2**grid_level."""
    p, q = fn.grid_pairs(grid_level)
    return [_scan_report(p, q, grid_level, j) for j in range(1, (1 << grid_level) + 1)]


class WitnessRow(NamedTuple):
    n: int
    increment: QuadValue
    ratio_decimal: str


def witness_steps(n: int) -> tuple[Fraction, Fraction]:
    """The witness pair (t_n, h_n) = (1/2 - (1/3) 2**-n, (2/3) 2**-n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(1, 2) - Fraction(1, 3 * (1 << n)), Fraction(2, 3 * (1 << n))


def witness_ratios(kind: str, n_lo: int = 1, n_hi: int = 12) -> list[WitnessRow]:
    """Exact sharpness witnesses for the two envelope bounds.

    part_a: the all-plus increment from 0 to h_n equals
            omega(h_n) - (1 + sqrt2) h_n, so the ratio to omega tends to 1.
    part_b: the negated-half-split increment across [t_n, t_n + h_n] equals
            sqrt2 omega(h_n) - (sqrt2 + 2) h_n; the ratio tends to sqrt2.

    Both identities are verified exactly for every row; a mismatch raises.
    """
    if kind not in ("part_a", "part_b"):
        raise ValueError("kind must be 'part_a' or 'part_b'")
    hat = TakagiFunction(AllPlus())
    low = TakagiFunction(NegHalfSplit())
    rows = []
    for n in range(n_lo, n_hi + 1):
        t_n, h_n = witness_steps(n)
        om = omega(h_n)
        if kind == "part_a":
            inc = thirds_value(hat, h_n)  # x(0) = 0
            expected = om - QuadValue(1, 1) * h_n
        else:
            inc = thirds_value(low, t_n + h_n) - thirds_value(low, t_n)
            expected = SQRT2 * om - QuadValue(2, 1) * h_n
        if inc != expected:
            raise ArithmeticError(f"witness identity failed at n={n} ({kind})")
        rows.append(WitnessRow(n, inc, decimal_ratio(inc.pair(), om.pair(), 8)))
    return rows
