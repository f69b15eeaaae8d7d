"""Closed-form and scanned extrema of the wedge-series functions.

The all-plus partial sum at level n is maximized at exactly two points,
J_n/2**n and 1 - J_n/2**n with J_n the Jacobsthal numbers, and the maximum
has the closed form M_n below.  Grid scans reproduce these values exactly
and provide the brute-force oracle for arbitrary schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gridscan import block_extrema
from .qfield import Dyadic, QuadValue, pow2_half
from .takagi import TakagiFunction, pair_value


def jacobsthal(n: int) -> int:
    """J_n = (2**n - (-1)**n) / 3, exactly (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ((1 << n) - (-1) ** n) // 3


def maximizers(n: int) -> tuple[Dyadic, Dyadic]:
    """The two level-n maximizers J_n/2**n and its reflection 1 - J_n/2**n."""
    j = jacobsthal(n)
    return Dyadic(j, n), Dyadic((1 << n) - j, n)


def max_value(n: int) -> QuadValue:
    """M_n = (2 + sqrt2 + (-1)**(n+1) * 2**-n * (sqrt2 - 1))/3 - 2**(-n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = Fraction((-1) ** (n + 1), 1 << n)
    return (QuadValue(2, 1) + QuadValue(-eps, eps)) * Fraction(1, 3) - pow2_half(-n)


@dataclass(frozen=True)
class ExtremaReport:
    """Exact extrema of one function over the grid j/2**level."""

    level: int
    max: QuadValue
    argmax: list[Dyadic]
    min: QuadValue
    argmin: list[Dyadic]
    oscillation: QuadValue


def grid_extrema(fn: TakagiFunction, level: int) -> ExtremaReport:
    """Exact max/min scan over the 2**-level grid, streamed in blocks; ties listed in order."""
    if level < 1:
        raise ValueError("level must be >= 1")
    (hi_p, hi_q, hi_ties), (lo_p, lo_q, lo_ties) = block_extrema(fn._blocks(level))
    hi = pair_value(hi_p, hi_q, level)
    lo = pair_value(lo_p, lo_q, level)
    return ExtremaReport(
        level=level,
        max=hi,
        argmax=[Dyadic(j, level) for j in hi_ties],
        min=lo,
        argmin=[Dyadic(j, level) for j in lo_ties],
        oscillation=hi - lo,
    )


def grid_oscillation(fn: TakagiFunction, level: int) -> QuadValue:
    """max - min of the same exact scan."""
    return grid_extrema(fn, level).oscillation
