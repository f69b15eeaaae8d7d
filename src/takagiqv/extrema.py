"""Closed-form and searched extrema of the wedge-series functions.

The all-plus partial sum at level n is maximized at exactly two points,
J_n/2**n and 1 - J_n/2**n with J_n the Jacobsthal numbers, and the maximum
has the closed form M_n below.  M_n also bounds every n-generation ±1
partial sum in size, which is what lets ``grid_extrema`` find the exact
extrema of any scheme on a fine grid by branch and bound, refining only
the few cells that could still hold one.  Every search starts from a full
seed grid, the whole grid up to level ``SEED_LEVEL``, and ends in one
exact merge of its float candidates, ``_merge``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .qfield import _SQRT2_F, Dyadic, QuadValue, pow2_half, sign_pair
from .takagi import TakagiFunction, _check_level, pair_value

#: Level of the full grid a search starts from; finer levels refine only the
#: cells the remainder bound cannot rule out.
SEED_LEVEL = 10

#: (p*, q*, sorted tie indices) of one exact extremum.
Extremum = tuple[int, int, list[int]]


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


@cache
def _max_float(n: int) -> float:
    return float(max_value(n))


def grid_extrema(fn: TakagiFunction, level: int) -> ExtremaReport:
    """Exact max/min over the grid j/2**level by branch and bound; ties listed in order.

    Values are integer pairs at the level-N scale (N = level): x(j/2**N) =
    (p + q*sqrt2) / 2**N.  The search starts from the full grid of level
    s = min(N, SEED_LEVEL), the whole grid when N <= SEED_LEVEL, and refines
    one generation at a time.  At level n it keeps the alive cells [k/2**n,
    (k+1)/2**n] as their endpoint pairs, drops the cells that cannot hold an
    extremum, and splits the rest at their midpoints, which the midpoint
    recursion gives as (left + right)/2 plus theta(n, k) times the wedge
    height 2**(N - 1 - n + n//2) on p (n even) or q (n odd).

    Why a dropped cell holds no maximum (the minimum is symmetric).  On a
    level-n cell the generations below n add up to the chord between the
    cell's endpoints, at most the larger endpoint value.  The generations
    n .. N-1 add sum theta(m, k) * e(m, k)(t), and since every wedge is
    nonnegative this is at most the all-plus sum of the same wedges in size.
    The wedges are self-similar, e(m, k)(t) = 2**(-m/2) * e(0, 0)(2**m t - k),
    so on the cell that sum is 2**(-n/2) times the all-plus (N-n)-generation
    partial sum at the rescaled point, at most 2**(-n/2) * M_(N-n).  At the
    level-N scale every grid point of the cell is therefore at most
    max(endpoints) + R_n, R_n = 2**(N - n/2) * M_(N-n).  Every value the
    search has seen is the exact value at a grid point, so a cell with
    max(endpoints) + R_n below the largest value seen holds only points
    below the maximum.

    Floats.  |p|, |q| <= 2**(N+2), so f = p + q*sqrt2 in float64 is within
    2**(N-48) of the exact value; the float R_n (M_(N-n) converted once,
    times ldexp of 1 or float sqrt2) is within 2**(N-46) of R_n, and the
    sums of a few such floats round by less than 2**(N-47).  A cell is
    dropped only when its float bound falls short of the float maximum by
    more than the margin 2**(N-40), and the exact merge takes every seen
    point within the margin of the float maximum or minimum.

    No tie is lost: every grid point of a surviving cell is created, and
    screened, at its own level, as a seed point or as the midpoint of an
    alive cell, and every point of a dropped cell lies strictly below the
    maximum seen (above the minimum).  The candidates are merged exactly by
    ``_merge``.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    _check_level(level)
    (hi_p, hi_q, hi_ties), (lo_p, lo_q, lo_ties) = _search(fn, level)
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


def _search(fn: TakagiFunction, level: int) -> tuple[Extremum, Extremum]:
    """The branch and bound of ``grid_extrema`` from the seed grid."""
    seed = min(level, SEED_LEVEL)
    pts = np.stack(fn.grid_pairs(seed)) << (level - seed)
    f = pts[1] * _SQRT2_F + pts[0]
    found = [(np.arange(0, (1 << level) + 1, 1 << (level - seed)), pts, f)]
    hi, lo = f.max(), f.min()
    margin = math.ldexp(1.0, level - 40)
    # alive cells: left and right endpoint pairs, their floats, their index k
    a, b, fa, fb, k = pts[:, :-1], pts[:, 1:], f[:-1], f[1:], np.arange(1 << seed)
    for n in range(seed, level):
        r = _max_float(level - n) * math.ldexp(_SQRT2_F if n % 2 else 1.0, level - (n + 1) // 2) + margin
        keep = np.flatnonzero((np.maximum(fa, fb) + r >= hi) | (np.minimum(fa, fb) - r <= lo))
        a, b, fa, fb, k = a[:, keep], b[:, keep], fa[keep], fb[keep], k[keep]
        mid = (a + b) >> 1
        mid[n % 2] += fn.scheme.thetas(n, k) << (level - 1 - n + n // 2)
        fm = mid[1] * _SQRT2_F + mid[0]
        found.append(((2 * k + 1) << (level - 1 - n), mid, fm))
        hi, lo = max(hi, fm.max()), min(lo, fm.min())
        a, b = np.concatenate((a, mid), axis=1), np.concatenate((mid, b), axis=1)
        fa, fb, k = np.concatenate((fa, fm)), np.concatenate((fm, fb)), np.concatenate((2 * k, 2 * k + 1))
    idx, pts, f = (np.concatenate(part, axis=-1) for part in zip(*found))
    cand = np.flatnonzero((f >= hi - margin) | (f <= lo + margin))
    return _merge(idx[cand].tolist(), pts[0, cand].tolist(), pts[1, cand].tolist())


def _merge(idx: list[int], cp: list[int], cq: list[int]) -> tuple[Extremum, Extremum]:
    """Exact maximum and minimum over candidate values cp[i] + cq[i]*sqrt2 at indices idx."""
    hi = lo = 0
    hi_ties, lo_ties = [idx[0]], [idx[0]]
    for i in range(1, len(idx)):
        c = sign_pair(cp[i] - cp[hi], cq[i] - cq[hi])
        if c > 0:
            hi, hi_ties = i, [idx[i]]
        elif c == 0:
            hi_ties.append(idx[i])
        c = sign_pair(cp[i] - cp[lo], cq[i] - cq[lo])
        if c < 0:
            lo, lo_ties = i, [idx[i]]
        elif c == 0:
            lo_ties.append(idx[i])
    return (cp[hi], cq[hi], sorted(hi_ties)), (cp[lo], cq[lo], sorted(lo_ties))


def grid_oscillation(fn: TakagiFunction, level: int) -> QuadValue:
    """max - min of the same exact scan."""
    return grid_extrema(fn, level).oscillation
