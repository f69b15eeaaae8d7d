"""Pathwise quadratic variation and covariation along dyadic partitions.

The n-th dyadic partition is T_n = {k * 2**-n : k = 0..2**n}.  For a grid
point t, the level-n approximations sum over the partition intervals
[s, s'] contained in [0, t]:

    qv:   sum (x(s') - x(s))**2
    cov:  sum (x(s') - x(s)) * (y(s') - y(s))

so the value at t = 0 is 0 and at t = 1 the whole partition contributes.
All increments are exact integer pairs scaled by 2**n, and every reported
number is an exact element of Q(sqrt(2)).

The sums run block by block over the grid (``TakagiFunction._blocks``, or
views of a caller's pair grid): each block gives int64 dot products of its
increments, and the blocks add up in Python ints, so no full-size array is
formed.  A caller's pair grid is refused with ValueError when its entries
or increments are too large for the int64 sums to be exact.  Profiles over
levels (:func:`cov_profile`, :func:`counterexample_series`) stream one
top-level grid per function and read from it every level whose stride
fits in a block: the level-n grid is every 2**(N-n)-th point of the
level-N grid, its pairs shifted right by N - n.  The coarser levels, of
fewer points than a block, build their own grids.

The covariation of the all-plus function with the generation-alternating
one oscillates between two limits along even and odd levels;
:func:`counterexample_series` tabulates the four subsequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

from .qfield import Dyadic, QuadValue, Rational, _as_fraction
from .schemes import AllPlus, AlternatingM
from .takagi import TakagiFunction, _check_level, block_bits, pair_blocks, pair_value

PairGrid = tuple[np.ndarray, np.ndarray]
GridLike = Union[TakagiFunction, PairGrid]


@dataclass(frozen=True)
class QVRow:
    level: int
    t: Dyadic
    value: QuadValue
    distance: QuadValue | None = None


class ProfileSums(NamedTuple):
    """A running qv profile as integers: row i is the time i * stride / 2**level,
    with value (a[i] + b[i]*sqrt(2)) / 4**level."""

    level: int
    stride: int
    a: list[int]
    b: list[int]

    def rows(self) -> list[QVRow]:
        n = self.level
        return [QVRow(n, Dyadic(i * self.stride, n), pair_value(a, b, 2 * n))
                for i, (a, b) in enumerate(zip(self.a, self.b))]


class QVSeries:
    """Rows of (level, time, value), tagged qv / covariation / qv_of_sum.

    A qv profile is held as its integer ``sums``; its rows are built the
    first time they are asked for.
    """

    def __init__(self, tag: str, rows: list[QVRow] | None = None,
                 sums: ProfileSums | None = None) -> None:
        self.tag = tag
        self.sums = sums
        self._rows = rows

    @property
    def rows(self) -> list[QVRow]:
        if self._rows is None:
            self._rows = self.sums.rows()
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVSeries):
            return NotImplemented
        return (self.tag, self.rows) == (other.tag, other.rows)

    def __repr__(self) -> str:
        return f"QVSeries({self.tag!r}, {self.rows!r})"


def _grid_index(level: int, t: Dyadic | Rational) -> Dyadic:
    if not isinstance(t, Dyadic):
        t = Dyadic.from_fraction(_as_fraction(t))
    if not 0 <= t.as_fraction() <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    if t.exp > level:
        raise ValueError(f"t={t} not on the level-{level} dyadic grid")
    return t


def _pairs(x: PairGrid, level: int) -> PairGrid:
    """A caller's pair grid as arrays, refused unless it has the length of a level grid."""
    p, q = (np.asarray(a) for a in x)
    if len(p) != (1 << level) + 1:
        raise ValueError("pair grid has wrong length for this level")
    return p, q


Block = tuple[int, np.ndarray, np.ndarray]
Increments = tuple[np.ndarray, np.ndarray]

#: Entries of a caller's pair grid stay below this size, so the increments
#: of one grid, and of the sum of two, fit int64.
_ENTRY_LIMIT = 1 << 61


def _blocks(x: GridLike, level: int) -> Iterator[Block]:
    """The level grid of x as blocks; a caller's pair grid is checked for int64 room."""
    if isinstance(x, TakagiFunction):
        return x._blocks(level)  # GRID_LEVEL_CAP bounds every sum formed below
    return _checked_blocks(*_pairs(x, level))


def _checked_blocks(p: np.ndarray, q: np.ndarray) -> Iterator[Block]:
    """Views of a pair grid; ValueError before an int64 sum over a block could overflow.

    With d the largest increment size in a block of w intervals, each
    increment of the grid, or of its sum with another such grid, is at most
    2d in size, and every int64 sum below (a dot product, or p.p + 2 q.q
    per profile row) is at most 3 * w * (2d)**2.
    """
    for a in (p, q):
        if max(-int(a.min()), int(a.max())) >= _ENTRY_LIMIT:
            raise ValueError("pair grid entries must be below 2**61 in size")
    for off, bp, bq in pair_blocks(p, q):
        d = max(int(np.abs(np.diff(bp)).max()), int(np.abs(np.diff(bq)).max()))
        if 12 * (len(bp) - 1) * d * d >= 1 << 63:
            raise ValueError(f"pair grid increments up to {d} would overflow int64 sums")
        yield off, bp, bq


def _diffs(p: np.ndarray, q: np.ndarray, stride: int, buf: np.ndarray | None = None) -> Increments:
    """Increments of p and q between every stride-th point, in the rows of buf if given.

    Blocks are summed one after another in the same scratch rows: fresh
    arrays of block size would take new pages every time.
    """
    m = (len(p) - 1) // stride
    if buf is None:
        buf = np.empty((2, m), dtype=np.int64)
    dp, dq = buf[0, :m], buf[1, :m]
    np.subtract(p[stride::stride], p[:-stride:stride], out=dp)
    np.subtract(q[stride::stride], q[:-stride:stride], out=dq)
    return dp, dq


def _cross(dx: Increments, dy: Increments) -> tuple[int, int]:
    """sum (dpx + dqx sqrt2)(dpy + dqy sqrt2) as the integer pair (a, b)."""
    (dpx, dqx), (dpy, dqy) = dx, dy
    return (
        int(np.dot(dpx, dpy)) + 2 * int(np.dot(dqx, dqy)),
        int(np.dot(dpx, dqy)) + int(np.dot(dqx, dpy)),
    )


def _square(d: Increments) -> tuple[int, int]:
    dp, dq = d
    return int(np.dot(dp, dp)) + 2 * int(np.dot(dq, dq)), 2 * int(np.dot(dp, dq))


def _sum_sq(dx: Increments, dy: Increments) -> tuple[int, int]:
    """_square of the increments of x + y, formed in dx's scratch rows."""
    for a, b in zip(dx, dy):
        a += b
    return _square(dx)


def _reduce(kernel: Callable[..., tuple[int, int]], level: int, t: Dyadic | Rational,
            *grids: GridLike) -> QuadValue:
    """kernel's sum over [0, t] at one level."""
    (a, b), = _level_sums(kernel, grids, level, t, level)
    return pair_value(a, b, 2 * level)


def qv_approx(x: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n squared-increment sum of x over [0, t], exact."""
    return _reduce(_square, level, t, x)


def cov_approx(x: GridLike, y: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n cross-increment sum of x and y over [0, t], exact."""
    return _reduce(_cross, level, t, x, y)


def qv_of_sum(x: GridLike, y: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n squared-increment sum of x + y; polarization partner of cov."""
    return _reduce(_sum_sq, level, t, x, y)


def qv_profile(x: GridLike, level: int, stride: int = 1) -> QVSeries:
    """The running qv along the level-n grid, one row per stride-th point."""
    _check_level(level)
    if stride < 1 or (1 << level) % stride:
        raise ValueError(f"stride {stride} must divide 2**{level}")
    part_a: list[int] = []
    part_b: list[int] = []
    buf = None
    for _, p, q in _blocks(x, level):
        if buf is None:
            buf = np.empty((2, len(p) - 1), dtype=np.int64)
        # one sum per stride, or per block when a stride spans several
        w = min(stride, len(p) - 1)
        dp, dq = (d.reshape(-1, w) for d in _diffs(p, q, 1, buf))
        part_a += (np.einsum("ij,ij->i", dp, dp) + 2 * np.einsum("ij,ij->i", dq, dq)).tolist()
        part_b += (2 * np.einsum("ij,ij->i", dp, dq)).tolist()
    per_row = len(part_a) * stride >> level
    if per_row > 1:
        part_a = [sum(part_a[i : i + per_row]) for i in range(0, len(part_a), per_row)]
        part_b = [sum(part_b[i : i + per_row]) for i in range(0, len(part_b), per_row)]
    sums = ProfileSums(level, stride, list(accumulate(part_a, initial=0)),
                       list(accumulate(part_b, initial=0)))
    return QVSeries("qv", sums=sums)


def _level_sums(
    kernel: Callable[..., tuple[int, ...]], grids: tuple[GridLike, ...], top: int,
    t: Dyadic | Rational, lo: int,
) -> list[tuple[int, ...]]:
    """kernel's sums over [0, t] at every level lo..top, from one streamed top grid each.

    Every sum is formed at top scale: the level-n grid is every s-th point
    of the level-top grid, s = 2**(top-n), its pairs shifted right by
    top - n, so a sum of products of two increments is the same sum at top
    scale shifted right by 2*(top - n).  Levels whose stride fits in a
    block are summed from strided views of each block; each block gives
    int64 sums, added up in Python ints, and blocks past t are never
    built.  A coarser level n reads its own small grid (``grid_pairs(n)``)
    shifted left by top - n.  A caller's pair grid is checked for its own
    increments only, so it takes lo = top.
    """
    _check_level(top)
    j = _grid_index(top, t).numerator_at(top)
    bits = block_bits(top)
    bufs = [np.empty((2, 1 << bits), dtype=np.int64) for _ in grids]
    sums: dict[int, list[int]] = {}

    def add(n: int, stride: int, parts: list[PairGrid], bufs: list) -> None:
        got = kernel(*[_diffs(p, q, stride, b) for (p, q), b in zip(parts, bufs)])
        sums[n] = [u + v for u, v in zip(got, sums[n])] if n in sums else list(got)

    # the blocks up to j, and the first one even when j = 0
    for blocks in islice(zip(*[_blocks(g, top) for g in grids]), max(1, -(-j >> bits))):
        off = blocks[0][0]
        end = min(len(blocks[0][1]) - 1, j - off) + 1
        parts = [(p[:end], q[:end]) for _, p, q in blocks]
        for n in range(max(lo, top - bits), top + 1):
            add(n, 1 << (top - n), parts, bufs)
    for n in range(lo, top - bits):
        # t is on the level-lo grid, so j is a whole number of level-n intervals
        shift = top - n
        parts = [tuple(a[: (j >> shift) + 1] << shift for a in g.grid_pairs(n)) for g in grids]
        add(n, 1, parts, [None] * len(grids))
    return [tuple(v >> 2 * (top - n) for v in sums[n]) for n in range(lo, top + 1)]


def _first_level(t: Dyadic) -> int:
    """The first level of a profile at t: the coarsest grid carrying t, and at least 1."""
    return max(1, t.exp)


def cov_profile(x: TakagiFunction, y: TakagiFunction, n_max: int, t: Dyadic | Rational) -> QVSeries:
    """The covariation of x and y over [0, t] at every level from the first carrying t to n_max."""
    if not isinstance(t, Dyadic):
        t = Dyadic.from_fraction(_as_fraction(t))
    lo = _first_level(t)
    if n_max < lo:
        return QVSeries("covariation", [])
    sums = _level_sums(_cross, (x, y), n_max, t, lo)
    rows = [QVRow(n, t, pair_value(a, b, 2 * n)) for n, (a, b) in enumerate(sums, lo)]
    return QVSeries("covariation", rows)


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


def _cov_and_sum_sq(dx: Increments, dy: Increments) -> tuple[int, int, int, int]:
    return (*_cross(dx, dy), *_sum_sq(dx, dy))


def counterexample_series(n_max: int, t: Dyadic | Rational) -> CounterexampleStudy:
    """Tabulate qv-of-sum and covariation subsequences for (all_plus, alt_m).

    Each row carries the distance |value - limit * t| to its subsequence
    limit: 4/3 t and 8/3 t for the qv of the sum at even/odd levels,
    -t/3 and t/3 for the covariation.
    """
    if not isinstance(t, Dyadic):
        t = Dyadic.from_fraction(_as_fraction(t))
    n0 = _first_level(t)
    if n_max < n0:
        raise ValueError(f"n_max={n_max} below the first level {n0} carrying t={t}")
    x = TakagiFunction(AllPlus())
    y = TakagiFunction(AlternatingM())
    tf = t.as_fraction()
    buckets: dict[str, list[QVRow]] = {k: [] for k in ("even_qv", "odd_qv", "even_cov", "odd_cov")}
    sums = _level_sums(_cov_and_sum_sq, (x, y), n_max, t, n0)
    for n, (ca, cb, sa, sb) in enumerate(sums, n0):
        cov, qsum = pair_value(ca, cb, 2 * n), pair_value(sa, sb, 2 * n)
        even = n % 2 == 0
        cov_lim = (COV_LIMIT_EVEN if even else COV_LIMIT_ODD) * tf
        sum_lim = (SUM_LIMIT_EVEN if even else SUM_LIMIT_ODD) * tf
        buckets["even_cov" if even else "odd_cov"].append(
            QVRow(n, t, cov, abs(cov - cov_lim))
        )
        buckets["even_qv" if even else "odd_qv"].append(
            QVRow(n, t, qsum, abs(qsum - sum_lim))
        )
    return CounterexampleStudy(
        even_qv=QVSeries("qv_of_sum", buckets["even_qv"]),
        odd_qv=QVSeries("qv_of_sum", buckets["odd_qv"]),
        even_cov=QVSeries("covariation", buckets["even_cov"]),
        odd_cov=QVSeries("covariation", buckets["odd_cov"]),
    )
