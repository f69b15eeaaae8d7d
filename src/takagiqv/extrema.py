"""Closed-form and searched extrema of the wedge-series functions.

The all-plus partial sum at level n is maximized at exactly two points,
J_n/2**n and 1 - J_n/2**n with J_n the Jacobsthal numbers, and the maximum
has the closed form M_n below.  M_n also bounds every n-generation ±1
partial sum in size, so ``grid_extrema`` finds the exact extrema of any
scheme on a fine grid by branch and bound from the whole grid up to level
``SEED_LEVEL``, refining only the few cells that could still hold one.  The
cell split, tail bound and float margin (``_split``, ``_tail``, ``_margin``)
are stated once here for it and for ``modulus._search``.
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


def grid_extrema(fn: TakagiFunction, level: int) -> ExtremaReport:
    """Exact max/min over the grid j/2**level by branch and bound; ties listed in order.

    Values are integer pairs at the level-N scale (N = level): x(j/2**N) =
    (p + q*sqrt2) / 2**N.  The search starts from the full grid of level
    s = min(N, SEED_LEVEL), the whole grid when N <= SEED_LEVEL, and refines
    one generation at a time.  At level n it keeps the alive cells [k/2**n,
    (k+1)/2**n] as their endpoint pairs, drops the cells that cannot hold an
    extremum, and splits the rest at their midpoints (``_split``).

    Why a dropped cell holds no maximum (the minimum is symmetric).  On a
    level-n cell the generations below n add up to the chord between the
    cell's endpoints, at most the larger endpoint value, and the generations
    n .. N-1 add at most R_n (``_tail``) at a grid point.  Every value the
    search has seen is the exact value at a grid point, so a cell with
    max(endpoints) + R_n below the largest value seen holds only points below
    the maximum.  In floats (``_margin``) a cell is dropped only when it falls
    short by more than the margin, and every seen point within the margin of
    the float maximum or minimum is merged exactly.

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
    pts = fn._grid(seed, level - seed)
    f = pts[1] * _SQRT2_F + pts[0]
    found = [(np.arange(0, (1 << level) + 1, 1 << (level - seed)), pts, f)]
    hi, lo = f.max(), f.min()
    margin = _margin(level)
    # alive cells: left and right endpoint pairs, their floats, their index k
    a, b, fa, fb, k = pts[:, :-1], pts[:, 1:], f[:-1], f[1:], np.arange(1 << seed)
    for n in range(seed, level):
        r = _tail(level, n)[0] + margin
        keep = np.flatnonzero((np.maximum(fa, fb) + r >= hi) | (np.minimum(fa, fb) - r <= lo))
        a, b, fa, fb, k = a[:, keep], b[:, keep], fa[keep], fb[keep], k[keep]
        mid = _split(fn, level, n, k, a, b)
        fm = mid[1] * _SQRT2_F + mid[0]
        found.append(((2 * k + 1) << (level - 1 - n), mid, fm))
        hi, lo = max(hi, fm.max()), min(lo, fm.min())
        a, b = np.concatenate((a, mid), axis=1), np.concatenate((mid, b), axis=1)
        fa, fb, k = np.concatenate((fa, fm)), np.concatenate((fm, fb)), np.concatenate((2 * k, 2 * k + 1))
    idx, pts, f = (np.concatenate(part, axis=-1) for part in zip(*found))
    cand = np.flatnonzero((f >= hi - margin) | (f <= lo + margin))
    return _merge(idx[cand].tolist(), pts[0, cand].tolist(), pts[1, cand].tolist())


def _split(fn: TakagiFunction, level: int, n: int, k: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Midpoints at the level scale of the level-n cells k, (..., m), with end pairs a, b, (..., 2, m): by the
    midpoint recursion, (a + b)/2 plus theta(n, k) times 2**(level - 1 - n + n//2) on p (n even) or q (n odd)."""
    mid = a + b
    mid >>= 1
    theta = fn.scheme.constant(n)
    if theta is None:
        theta = fn.scheme.thetas(n, k.reshape(-1)).reshape(k.shape)
    mid[..., n % 2, :] += theta << (level - 1 - n + n // 2)
    return mid


def _margin(level: int) -> float:
    """The float margin 2**(N - 40) of both searches, N = level, over pairs (p, q) at the level-N scale:
    |p|, |q| <= 2**(N + 2) <= 2**28, so pairs, their sums and midpoints are exact in int64; p + q*sqrt2 in
    float64 is within 2**(N - 48) of its value, ``_tail``'s R_n within 2**(N - 46), and sums of a few such
    floats round by less than 2**(N - 45), so a cell whose float bound falls short of the float extreme by
    more than the margin holds no extreme."""
    return math.ldexp(1.0, level - 40)


@cache
def _tail(level: int, n: int) -> tuple[float, float]:
    """(R_n, s) in float64, s = 2**(N - n/2), N = level: R_n = s * M_(N-n) bounds the generations n .. N-1
    at a grid point of a level-n cell on the level-N scale, as by self-similarity, e(m, k)(t) = 2**(-m/2)
    e(0, 0)(2**m t - k), they add 2**(-n/2) times an (N-n)-generation partial sum, at most M_(N-n) in size.
    M_(N-n) is converted once and s is a power of two, times float sqrt2 for odd n, so the float R_n is
    within 2**(N - 46) of R_n."""
    s = math.ldexp(_SQRT2_F if n % 2 else 1.0, level - (n + 1) // 2)
    return float(max_value(level - n)) * s, s


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
