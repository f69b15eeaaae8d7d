"""Pathwise quadratic variation and covariation along dyadic partitions.

For t on the grid T_n = {k/2**n}, the level-n sums run over the intervals
[s, s'] of T_n inside [0, t]: the covariation of x and y sums (x(s') -
x(s)) * (y(s') - y(s)) as an exact integer pair (a, b) worth (a + b*sqrt2)
/ 4**n.  The qv of x is that of x with itself, and the qv of x + y is
qv(x) + qv(y) + 2 cov(x, y) (polarization).  For class members, with
k = exp(t) and n >= k,

    a_n = 2**(n-k) a_k + 2**n sum_{m=k}^{n-1} S_m,    b_n = 2**(n-k) b_k,

where S_m = sum_{i < t 2**m} theta_x(m, i) theta_y(m, i), which is t 2**m
for the qv (so q_n(t) = t + 2**(k-n) (q_k(t) - t), the paper's linear qv).
Proof: e(m, j) has slope +-2**(m/2) on the left/right half of its cell, so
2**n times a level-n increment is a sum over m < n of +-theta 2**(m/2).
For m < m' the generation-m term is constant on a level-m' cell, and the
generation-m' term takes opposite values on the equally many intervals of
its two halves: their products cancel over the cell.  The generations
below k are constant on a level-k cell, adding up to 2**k times the
level-k increment L there, and each finer one sums to 0 over it.  So over
a level-k cell the products of 2**n times the increments of x and y sum to
2**(n-k) L_x L_y plus same-generation terms only, 2**m theta_x theta_y on
each of the 2**(n-m) intervals of a generation-m cell.  Row i of
qv_profile(x, N, 2**(N-k)), at t = i/2**k, is thus row i of the level-k
profile mapped to a'_i = 2**(N-k) a_i + i (2**(2N-k) - 2**N), b'_i =
2**(N-k) b_i.

S_m is closed-form when the schemes have the same coefficients (t 2**m)
or are both constant in generation m (``scheme.constant(m)``, as all_plus
and alt_m are).  Otherwise it adds int64 dot products of ``scheme.thetas(m,
range)`` over chunks of at most ``takagi.BLOCK`` indices, each exact as
every product is +-1, in Python ints, and caches no row.  The level-k
sums, and those of a caller's pair grid (in general no class member), are
int64 dot products of each block's increments up to t
(``takagi.grid_blocks(x, k, end)``) added in Python ints.  Each grid is
read once: every covariation a result needs (one for a qv, three for the
qv of a sum) is summed from the same increments, and the covariation of a
grid with itself takes three dot products, not four.  A profile at stride
2**(N-k) sums the cells of the level-k grid (k = N at stride 1, and a pair
grid's own grid, sliced); a pair grid too large for exact int64 sums on
the blocks read is refused with ValueError.
:func:`counterexample_series` tabulates the even and odd subsequences of
the qv of the sum and the covariation of all_plus and alt_m, which tend to
different limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .qfield import Dyadic, QuadValue, Rational
from .schemes import AllPlus, AlternatingM
from .takagi import (Block, GridLike, TakagiFunction, _check_level, _grid_index, block_bits, grid_blocks,
                     pair_value)


@dataclass(frozen=True)
class QVRow:
    level: int
    t: Dyadic
    value: QuadValue
    distance: QuadValue | None = None


class QVSeries(NamedTuple):
    """Rows of (level, time, value), tagged qv / covariation / qv_of_sum."""

    tag: str
    rows: list[QVRow]


Increments = tuple[np.ndarray, np.ndarray]

#: Entries of a caller's pair grid stay below this size, so their increments fit int64.
_ENTRY_LIMIT = 1 << 61


def _size(a: np.ndarray) -> int:
    """The largest entry of a in size, 0 if a is empty."""
    return max(-int(np.min(a, initial=0)), int(np.max(a, initial=0)))


def _increments(x: GridLike, level: int, end: int) -> Iterator[Block]:
    """(offset, dp, dq) for each block of the level grid of x that holds its points 0 .. end: the
    increments of p and q up to point end, all in this generator's one pair of scratch rows, as
    fresh arrays would take new pages.

    A caller's pair grid is checked for int64 room on the blocks as read,
    up to end (GRID_LEVEL_CAP bounds a class member): its entries must stay
    below _ENTRY_LIMIT, and with d the largest increment size read from a
    block of w intervals, every int64 sum below (a dot product, or p.p +
    2 q.q per interval) is at most 3 * w * d**2, so ValueError is raised
    before one could reach 2**63.  With e the largest entry size, d <= 2e,
    so the increments are measured only when 3 * w * (2e)**2 could reach it.
    """
    pair = not isinstance(x, TakagiFunction)
    buf = np.empty((2, 1 << block_bits(level)), dtype=np.int64)
    for off, p, q in grid_blocks(x, level, end):
        e = max(_size(p), _size(q)) if pair else 0
        if e >= _ENTRY_LIMIT:
            raise ValueError("pair grid entries must be below 2**61 in size")
        dp, dq = buf[:, : len(p) - 1]
        np.subtract(p[1:], p[:-1], out=dp)
        np.subtract(q[1:], q[:-1], out=dq)
        if 12 * buf.shape[1] * e * e >= 1 << 63:
            d = max(_size(dp), _size(dq))
            if 3 * buf.shape[1] * d * d >= 1 << 63:
                raise ValueError(f"pair grid increments up to {d} would overflow int64 sums")
        yield off, dp, dq


def _cross(dx: Increments, dy: Increments) -> tuple[int, int]:
    """sum (dpx + dqx sqrt2)(dpy + dqy sqrt2) as the integer pair (a, b): the one block kernel,
    with three dot products, not four, when dx is dy."""
    (dpx, dqx), (dpy, dqy) = dx, dy
    return (int(np.dot(dpx, dpy)) + 2 * int(np.dot(dqx, dqy)),
            2 * int(np.dot(dpx, dqx)) if dx is dy else int(np.dot(dpx, dqy)) + int(np.dot(dqx, dpy)))


def _agreement(x: TakagiFunction, y: TakagiFunction, m: int, j: int) -> int:
    """S_m = sum_{i<j} theta_x(m, i) * theta_y(m, i), closed-form or in chunks of
    at most one block (module docstring); no row is built or cached."""
    sx, sy = x.scheme, y.scheme
    # reads generation m, so a scheme that stops before it raises as its grid would
    sign = sx.theta(m, 0) * sy.theta(m, 0)
    if sx.same_coefficients(sy):
        return j
    if sx.constant(m) is not None and sy.constant(m) is not None:
        return sign * j
    width = 1 << block_bits(m)
    total = 0
    for lo in range(0, j, width):
        k = np.arange(lo, min(lo + width, j), dtype=np.int64)
        total += int(np.dot(sx.thetas(m, k), sy.thetas(m, k)))
    return total


def _levels(grids: list[GridLike], pairs: list[tuple[int, int]], top: int, t: Dyadic | Rational,
            lo: int) -> list[list[tuple[int, int]]]:
    """For each (i, j) in pairs, the covariation of grids[i] and grids[j] over [0, t] at every
    level lo..top, as pairs over 4**n.

    Each grid is read once, up to t, block by block, and every pair sums
    ``_cross`` of the same increments: one tuple per grid, so an (i, i)
    pair passes the same tuple twice.  Class members are summed on their
    level-k grids, k = exp(t), and carried up by the identity of the
    module docstring.  A caller's pair grid, with lo = top, is summed on
    its own grid.  Blocks past t are never built.
    """
    _check_level(top)
    t = _grid_index(top, t)
    k = t.exp if all(isinstance(g, TakagiFunction) for g in grids) else top
    crosses = []  # per block, the sum of each pair
    for blocks in zip(*(_increments(g, k, t.numerator_at(k)) for g in grids)):
        d = [(dp, dq) for _, dp, dq in blocks]
        crosses.append([_cross(d[i], d[j]) for i, j in pairs])
    out = []
    for (i, j), cells in zip(pairs, zip(*crosses)):
        a, b = map(sum, zip(*cells))
        w, levels = 0, []
        for n in range(k, top + 1):
            if n >= lo:
                levels.append(((a << n - k) + (w << n), b << n - k))
            if n < top:
                w += _agreement(grids[i], grids[j], n, t.numerator_at(n))
        out.append(levels)
    return out


def _polarized(x: GridLike, y: GridLike, top: int, t: Dyadic | Rational, lo: int) -> tuple[list, list]:
    """The qv of x + y, [x] + [y] + 2[x, y], and the covariation [x, y] as pairs at every level lo..top."""
    xx, yy, xy = _levels([x, y], [(0, 0), (1, 1), (0, 1)], top, t, lo)
    return [(ax + ay + 2 * ac, bx + by + 2 * bc) for (ax, bx), (ay, by), (ac, bc) in zip(xx, yy, xy)], xy


def qv_approx(x: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n squared-increment sum of x over [0, t], exact: the covariation of x with itself."""
    return pair_value(*_levels([x], [(0, 0)], level, t, level)[0][0], 2 * level)


def cov_approx(x: GridLike, y: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n cross-increment sum of x and y over [0, t], exact."""
    return pair_value(*_levels([x, y], [(0, 1)], level, t, level)[0][0], 2 * level)


def qv_of_sum(x: GridLike, y: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n squared-increment sum of x + y, by polarization."""
    return pair_value(*_polarized(x, y, level, t, level)[0][0], 2 * level)


def _running_sums(x: GridLike, level: int, end: int) -> tuple[np.ndarray, np.ndarray]:
    """The running qv sums (a, b) at the points 0 .. end of the level grid, filled block by block:
    int64 for a class member (its level-n increments have parts below 2**(n/2 + 1), so |a|, |b| <
    2**(2n + 4)), Python ints for a pair grid, whose totals may pass 2**63 under the block guard."""
    a = np.zeros(end + 1, dtype=np.int64 if isinstance(x, TakagiFunction) else object)
    b = np.zeros_like(a)
    for off, dp, dq in _increments(x, level, end):
        cells = slice(off + 1, off + 1 + len(dp))
        a[cells] = dp * dp + 2 * dq * dq
        b[cells] = 2 * dp * dq
    return np.cumsum(a, out=a), np.cumsum(b, out=b)


def _profile_sums(x: GridLike, level: int, stride: int, t: Rational = 1) -> tuple[np.ndarray, np.ndarray]:
    """The running qv along the level-n grid as integers, up to t in [0, 1]: row i is the time
    i * stride / 2**level <= t, with value (a[i] + b[i]*sqrt(2)) / 4**level.

    For a class member, with stride = 2**(level-k), the rows are the
    stride-1 profile of its level-k grid, mapped as in the module docstring
    (at stride 1, k = level and the map is the identity).  A caller's pair
    grid is summed on its own grid and sliced.  No block past t is built.
    """
    _check_level(level)
    if stride < 1 or (1 << level) % stride:
        raise ValueError(f"stride {stride} must divide 2**{level}")
    last = (t.numerator << level) // t.denominator // stride  # the last row at or before t
    if not isinstance(x, TakagiFunction):
        a, b = _running_sums(x, level, last * stride)
        return a[::stride], b[::stride]
    k = level - stride.bit_length() + 1
    a, b = _running_sums(x, k, last)
    # sum_{m=k}^{level-1} S_m(x, x) at t = 2**-k is 2**(level-k) - 1; both terms stay below 2**58
    step = sum(_agreement(x, x, m, 1 << m - k) for m in range(k, level)) << level
    # in place: at stride 1 the sums are a whole grid's size
    a <<= level - k
    a += np.arange(len(a), dtype=np.int64) * step
    b <<= level - k
    return a, b


def qv_profile(x: GridLike, level: int, stride: int = 1) -> QVSeries:
    """The running qv along the level-n grid, one row per stride-th point."""
    a, b = _profile_sums(x, level, stride)
    return QVSeries("qv", [QVRow(level, Dyadic(i * stride, level), pair_value(p, q, 2 * level))
                           for i, (p, q) in enumerate(zip(a.tolist(), b.tolist()))])


def _first_level(t: Dyadic) -> int:
    """The first level of a profile at t: the coarsest grid carrying t, and at least 1."""
    return max(1, t.exp)


def cov_profile(x: TakagiFunction, y: TakagiFunction, n_max: int, t: Dyadic | Rational) -> QVSeries:
    """The covariation of x and y over [0, t] at every level from the first carrying t to n_max."""
    t = Dyadic.coerce(t)
    lo = _first_level(t)
    if n_max < lo:
        return QVSeries("covariation", [])
    sums = _levels([x, y], [(0, 1)], n_max, t, lo)[0]
    return QVSeries("covariation", [QVRow(n, t, pair_value(a, b, 2 * n)) for n, (a, b) in enumerate(sums, lo)])


class CounterexampleStudy(NamedTuple):
    even_qv: QVSeries
    odd_qv: QVSeries
    even_cov: QVSeries
    odd_cov: QVSeries


#: Subsequence limits (per unit time) of the qv of the sum and the
#: covariation for the pair (all_plus, alt_m): even/odd levels disagree,
#: so neither full sequence converges.
SUM_LIMIT_EVEN = Fraction(4, 3)
SUM_LIMIT_ODD = Fraction(8, 3)
COV_LIMIT_EVEN = Fraction(-1, 3)
COV_LIMIT_ODD = Fraction(1, 3)


def counterexample_series(n_max: int, t: Dyadic | Rational) -> CounterexampleStudy:
    """Tabulate qv-of-sum and covariation subsequences for (all_plus, alt_m).

    Each row carries the distance |value - limit * t| to its subsequence
    limit: 4/3 t and 8/3 t for the qv of the sum at even/odd levels,
    -t/3 and t/3 for the covariation.
    """
    t = Dyadic.coerce(t)
    n0 = _first_level(t)
    if n_max < n0:
        raise ValueError(f"n_max={n_max} below the first level {n0} carrying t={t}")
    x, y = TakagiFunction(AllPlus()), TakagiFunction(AlternatingM())
    rows: dict[str, list[QVRow]] = {k: [] for k in CounterexampleStudy._fields}
    qv, cov = _polarized(x, y, n_max, t, n0)
    for name, sums, limits in (("qv", qv, (SUM_LIMIT_EVEN, SUM_LIMIT_ODD)),
                               ("cov", cov, (COV_LIMIT_EVEN, COV_LIMIT_ODD))):
        for n, (a, b) in enumerate(sums, n0):
            v = pair_value(a, b, 2 * n)
            distance = abs(v - limits[n % 2] * t.as_fraction())
            rows[("odd_" if n % 2 else "even_") + name].append(QVRow(n, t, v, distance))
    return CounterexampleStudy(*(QVSeries("covariation" if k.endswith("cov") else "qv_of_sum", r)
                                 for k, r in rows.items()))
