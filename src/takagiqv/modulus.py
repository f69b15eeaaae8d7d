"""Modulus of continuity: the sqrt(h)-scale envelope and its witnesses.

With nu(h) the integer part of log2(1/h), the envelope is

    omega(h) = (1 + 1/sqrt2) * h * 2**(nu(h)/2) + (1/3)(sqrt8 + 2) * 2**(-nu(h)/2)

an O(sqrt h) function, exact in Q(sqrt(2)) for rational h.  Increments of
the all-plus function never exceed omega(h); increments of any member of
the class never exceed sqrt2 * omega(h).  Both bounds are sharp along the
witness steps h_n = (2/3) * 2**-n: from t = 0 for the all-plus function,
and across t_n = 1/2 - (1/3) * 2**-n for the negated half-split function.

nu is decided by exact rational comparison, so h at an exact power of two
gets nu(2**-n) = n even though omega jumps there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .gridscan import abs_extremum, block_extrema
from .qfield import Dyadic, QuadValue, Rational, SQRT2, _as_fraction, pow2_half
from .schemes import AllPlus, NegHalfSplit
from .takagi import TakagiFunction, pair_blocks, pair_value, thirds_value

# 1 + 1/sqrt2 and (sqrt8 + 2)/3, the two omega coefficients
_SLOPE_COEF = QuadValue(1, Fraction(1, 2))
_TAIL_COEF = QuadValue(Fraction(2, 3), Fraction(2, 3))


def nu(h: Rational) -> int:
    """The unique n >= 0 with 2**-(n+1) < h <= 2**-n, by integer comparison."""
    h = _as_fraction(h)
    if not 0 < h <= 1:
        raise ValueError(f"h={h} outside (0, 1]")
    p, q = h.numerator, h.denominator
    n = max(q.bit_length() - p.bit_length(), 0)
    while (p << n) > q:
        n -= 1
    while (p << (n + 1)) <= q:
        n += 1
    return n


def omega(h: Rational) -> QuadValue:
    """The continuity envelope at h, exact in Q(sqrt(2))."""
    h = _as_fraction(h)
    n = nu(h)
    return _SLOPE_COEF * pow2_half(n) * h + _TAIL_COEF * pow2_half(-n)


@dataclass(frozen=True)
class ModulusReport:
    """Largest grid increment at step h versus the envelope."""

    h: Fraction
    nu: int
    omega: QuadValue
    scan_max: QuadValue
    ratio_decimal: str
    witness_t: Fraction


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
    scan_max = pair_value(mp, mq, grid_level)
    om = omega(h)
    return ModulusReport(
        h=h,
        nu=nu(h),
        omega=om,
        scan_max=scan_max,
        ratio_decimal=(scan_max / om).decimal(8),
        witness_t=Fraction(ties[0], 1 << grid_level),
    )


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
        rows.append(WitnessRow(n, inc, (inc / om).decimal(8)))
    return rows
