"""Pathwise quadratic variation and covariation along dyadic partitions.

The n-th dyadic partition is T_n = {k * 2**-n : k = 0..2**n}.  For a grid
point t, the level-n approximations sum over the partition intervals
[s, s'] contained in [0, t]:

    qv:   sum (x(s') - x(s))**2
    cov:  sum (x(s') - x(s)) * (y(s') - y(s))

so the value at t = 0 is 0 and at t = 1 the whole partition contributes.
All increments are exact integer pairs scaled by 2**n, and every reported
number is an exact element of Q(sqrt(2)).

The covariation of the all-plus function with the generation-alternating
one oscillates between two limits along even and odd levels;
:func:`counterexample_series` tabulates the four subsequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .qfield import Dyadic, QuadValue, Rational, _as_fraction
from .schemes import AllPlus, AlternatingM
from .takagi import TakagiFunction

PairGrid = tuple[np.ndarray, np.ndarray]
GridLike = Union[TakagiFunction, PairGrid]


@dataclass(frozen=True)
class QVRow:
    level: int
    t: Dyadic
    value: QuadValue
    distance: QuadValue | None = None


@dataclass(frozen=True)
class QVSeries:
    """Rows of (level, time, value), tagged qv / covariation / qv_of_sum."""

    tag: str
    rows: list[QVRow]


def _grid_index(level: int, t: Dyadic | Rational) -> Dyadic:
    if not isinstance(t, Dyadic):
        t = Dyadic.from_fraction(_as_fraction(t))
    if not 0 <= t.as_fraction() <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    if t.exp > level:
        raise ValueError(f"t={t} not on the level-{level} dyadic grid")
    return t


def _pairs(x: GridLike, level: int) -> PairGrid:
    if isinstance(x, TakagiFunction):
        return x.grid_pairs(level)
    p, q = x
    if len(p) != (1 << level) + 1:
        raise ValueError("pair grid has wrong length for this level")
    return p, q


def _sum_value(a: int, b: int, level: int) -> QuadValue:
    den = 1 << (2 * level)
    return QuadValue(Fraction(a, den), Fraction(b, den))


def qv_approx(x: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n squared-increment sum of x over [0, t], exact."""
    t = _grid_index(level, t)
    j = t.numerator_at(level)
    p, q = _pairs(x, level)
    dp, dq = np.diff(p[: j + 1]), np.diff(q[: j + 1])
    a = int(np.dot(dp, dp)) + 2 * int(np.dot(dq, dq))
    b = 2 * int(np.dot(dp, dq))
    return _sum_value(a, b, level)


def cov_approx(x: GridLike, y: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n cross-increment sum of x and y over [0, t], exact."""
    t = _grid_index(level, t)
    j = t.numerator_at(level)
    px, qx = _pairs(x, level)
    py, qy = _pairs(y, level)
    dpx, dqx = np.diff(px[: j + 1]), np.diff(qx[: j + 1])
    dpy, dqy = np.diff(py[: j + 1]), np.diff(qy[: j + 1])
    a = int(np.dot(dpx, dpy)) + 2 * int(np.dot(dqx, dqy))
    b = int(np.dot(dpx, dqy)) + int(np.dot(dqx, dpy))
    return _sum_value(a, b, level)


def qv_of_sum(x: GridLike, y: GridLike, level: int, t: Dyadic | Rational) -> QuadValue:
    """Level-n squared-increment sum of x + y; polarization partner of cov."""
    px, qx = _pairs(x, level)
    py, qy = _pairs(y, level)
    return qv_approx((px + py, qx + qy), level, t)


def qv_profile(x: GridLike, level: int, stride: int = 1) -> QVSeries:
    """The running qv along the level-n grid, one row per stride-th point."""
    if stride < 1 or (1 << level) % stride:
        raise ValueError(f"stride {stride} must divide 2**{level}")
    p, q = _pairs(x, level)
    dp, dq = np.diff(p).reshape(-1, stride), np.diff(q).reshape(-1, stride)
    block_a = np.einsum("ij,ij->i", dp, dp) + 2 * np.einsum("ij,ij->i", dq, dq)
    block_b = 2 * np.einsum("ij,ij->i", dp, dq)
    cum_a = np.concatenate(([0], np.cumsum(block_a)))
    cum_b = np.concatenate(([0], np.cumsum(block_b)))
    rows = [
        QVRow(level, Dyadic(i * stride, level), _sum_value(a, b, level))
        for i, (a, b) in enumerate(zip(cum_a.tolist(), cum_b.tolist()))
    ]
    return QVSeries("qv", rows)


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
    if not isinstance(t, Dyadic):
        t = Dyadic.from_fraction(_as_fraction(t))
    n0 = max(1, t.exp)
    if n_max < n0:
        raise ValueError(f"n_max={n_max} below the first level {n0} carrying t={t}")
    x = TakagiFunction(AllPlus())
    y = TakagiFunction(AlternatingM())
    tf = t.as_fraction()
    buckets: dict[str, list[QVRow]] = {k: [] for k in ("even_qv", "odd_qv", "even_cov", "odd_cov")}
    for n in range(n0, n_max + 1):
        gx, gy = x.grid_pairs(n), y.grid_pairs(n)
        cov = cov_approx(gx, gy, n, t)
        qsum = qv_of_sum(gx, gy, n, t)
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
