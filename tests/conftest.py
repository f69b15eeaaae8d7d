"""Shared brute-force oracles, deliberately independent of the fast paths.

The library evaluates grids through the vectorized midpoint recursion and
sums increments with integer pairs; these oracles instead loop over every
basis function with Fraction arithmetic, so agreement is a genuine
cross-check rather than the same code run twice.

The Fraction oracles are quadratic in the grid size.  For levels far above
10 the float64 oracles below sum the wedges e(m,k) directly instead, one
generation at a time, and reach the same values to within rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from takagiqv.extrema import ExtremaReport
from takagiqv.follmer import _scaled_coeffs
from takagiqv.gridscan import exact_extrema
from takagiqv.modulus import ModulusReport, nu
from takagiqv.qfield import Dyadic, QuadValue, pow2_half, sign_pair
from takagiqv.quadvar import (
    COV_LIMIT_EVEN,
    COV_LIMIT_ODD,
    SUM_LIMIT_EVEN,
    SUM_LIMIT_ODD,
    CounterexampleStudy,
    QVRow,
    QVSeries,
    _grid_index,
    _pairs,
)
from takagiqv.schauder import eval_e
from takagiqv.schemes import AllPlus, AlternatingM
from takagiqv.takagi import TakagiFunction, pair_value


def oracle_partial(fn: TakagiFunction, n: int, t: Fraction) -> QuadValue:
    """Full double-loop partial sum: every (m, k), no support shortcuts."""
    acc = QuadValue(0, 0)
    for m in range(n):
        for k in range(1 << m):
            term = eval_e((m, k), t)
            if term:
                acc = acc + term * fn.scheme.theta(m, k)
    return acc


def oracle_partial_sum(fn: TakagiFunction, n: int, t: Fraction) -> QuadValue:
    """The n-generation partial sum as one QuadValue per generation: only the
    wedge whose support contains t contributes, evaluated by ``eval_e``."""
    acc = QuadValue(0, 0)
    for m in range(n):
        k = min(math.floor(t * (1 << m)), (1 << m) - 1)
        term = eval_e((m, k), t)
        if term:
            acc = acc + (term if fn.scheme.theta(m, k) > 0 else -term)
    return acc


def oracle_omega(h: Fraction) -> QuadValue:
    """(1 + 1/sqrt2) h 2**(nu/2) + (1/3)(sqrt8 + 2) 2**(-nu/2), in QuadValue products."""
    n = nu(h)
    slope, tail = QuadValue(1, Fraction(1, 2)), QuadValue(Fraction(2, 3), Fraction(2, 3))
    return slope * pow2_half(n) * h + tail * pow2_half(-n)


def oracle_grid(fn: TakagiFunction, level: int) -> list[QuadValue]:
    return [
        oracle_partial(fn, level, Fraction(j, 1 << level))
        for j in range((1 << level) + 1)
    ]


def oracle_qv(fn: TakagiFunction, level: int, t: Fraction) -> QuadValue:
    """Direct squared-increment summation over intervals inside [0, t]."""
    vals = oracle_grid(fn, level)
    j_end = int(t * (1 << level))
    acc = QuadValue(0, 0)
    for j in range(j_end):
        d = vals[j + 1] - vals[j]
        acc = acc + d * d
    return acc


def oracle_cov(fx: TakagiFunction, fy: TakagiFunction, level: int, t: Fraction) -> QuadValue:
    vx, vy = oracle_grid(fx, level), oracle_grid(fy, level)
    j_end = int(t * (1 << level))
    acc = QuadValue(0, 0)
    for j in range(j_end):
        acc = acc + (vx[j + 1] - vx[j]) * (vy[j + 1] - vy[j])
    return acc


def oracle_grid_pairs(fn: TakagiFunction, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint recursion written with plain temporaries, one per step.

    Each generation doubles the old values into the even slots and puts
    the neighbour sums plus theta times the rescaled wedge height into the
    odd ones, building every intermediate array separately.
    """
    p = np.zeros(2, dtype=np.int64)
    q = np.zeros(2, dtype=np.int64)
    for n in range(level):
        theta = fn.row(n)
        size = (1 << (n + 1)) + 1
        np_new = np.empty(size, dtype=np.int64)
        nq_new = np.empty(size, dtype=np.int64)
        np_new[::2] = p * 2
        nq_new[::2] = q * 2
        mid_p = p[:-1] + p[1:]
        mid_q = q[:-1] + q[1:]
        # wedge height 2**-(n+2)/2 rescaled by 2**(n+1)
        if n % 2 == 0:
            mid_p += theta * (1 << (n // 2))
        else:
            mid_q += theta * (1 << ((n - 1) // 2))
        np_new[1::2] = mid_p
        nq_new[1::2] = mid_q
        p, q = np_new, nq_new
    return p, q


# -- full-grid oracles for the block-streamed reductions ---------------------------
# The reductions as they were before grids were streamed: one full grid per
# call from oracle_grid_pairs, full-size increments, a single-sided screen.


def _oracle_pairs(x, level: int) -> tuple[np.ndarray, np.ndarray]:
    return oracle_grid_pairs(x, level) if isinstance(x, TakagiFunction) else _pairs(x, level)


def _oracle_argmax(p: np.ndarray, q: np.ndarray) -> tuple[int, int, list[int]]:
    """One float screen for the maximum, then exact comparisons over its survivors."""
    f = q.astype(np.float64) * 1.4142135623730951 + p
    p_abs = max(-int(p.min()), int(p.max()))
    q_abs = max(-int(q.min()), int(q.max()))
    err = (p_abs + 2.0 * q_abs + 1.0) * 2.0 ** -50
    cand = np.flatnonzero(f >= f.max() - 4.0 * err).tolist()
    best, ties = cand[0], [cand[0]]
    for i in cand[1:]:
        c = sign_pair(int(p[i]) - int(p[best]), int(q[i]) - int(q[best]))
        if c > 0:
            best, ties = i, [i]
        elif c == 0:
            ties.append(i)
    return int(p[best]), int(q[best]), sorted(ties)


def oracle_absmax(p: np.ndarray, q: np.ndarray) -> tuple[int, int, list[int]]:
    """Exact maximum of |p[i] + q[i]*sqrt(2)|, ties across both signs: the
    maximum and the minimum of one ``exact_extrema`` screen, compared exactly."""
    (hi_p, hi_q, hi_ties), (lo_p, lo_q, lo_ties) = exact_extrema(p, q)
    c = sign_pair(hi_p + lo_p, hi_q + lo_q)  # |max| vs |min|
    if c > 0:
        return hi_p, hi_q, hi_ties
    if c < 0:
        return -lo_p, -lo_q, lo_ties
    return hi_p, hi_q, sorted(set(hi_ties) | set(lo_ties))


def oracle_grid_extrema(fn: TakagiFunction, level: int) -> ExtremaReport:
    p, q = oracle_grid_pairs(fn, level)
    hi_p, hi_q, hi_ties = _oracle_argmax(p, q)
    lo_p, lo_q, lo_ties = _oracle_argmax(-p, -q)
    hi, lo = pair_value(hi_p, hi_q, level), pair_value(-lo_p, -lo_q, level)
    return ExtremaReport(
        level=level,
        max=hi,
        argmax=[Dyadic(j, level) for j in hi_ties],
        min=lo,
        argmin=[Dyadic(j, level) for j in lo_ties],
        oscillation=hi - lo,
    )


def oracle_modulus_scan(fn: TakagiFunction, level: int, h) -> ModulusReport:
    """The full-size increments x(t + h) - x(t) of one full grid, screened once
    for their maximum and once, negated, for the maximum of their negation."""
    h = Fraction(h)
    j = int(h * (1 << level))
    p, q = oracle_grid_pairs(fn, level)
    dp, dq = p[j:] - p[:-j], q[j:] - q[:-j]
    hi_p, hi_q, hi_ties = _oracle_argmax(dp, dq)
    lo_p, lo_q, lo_ties = _oracle_argmax(-dp, -dq)  # minus the minimum
    c = sign_pair(hi_p - lo_p, hi_q - lo_q)  # max vs -min
    if c > 0:
        mp, mq, ties = hi_p, hi_q, hi_ties
    elif c < 0:
        mp, mq, ties = lo_p, lo_q, lo_ties
    else:
        mp, mq, ties = hi_p, hi_q, sorted(set(hi_ties) | set(lo_ties))
    return ModulusReport(level, j, (mp, mq), ties[0])


def _oracle_sum_value(a: int, b: int, level: int) -> QuadValue:
    den = 1 << (2 * level)
    return QuadValue(Fraction(a, den), Fraction(b, den))


def oracle_qv_approx(x, level: int, t) -> QuadValue:
    j = _grid_index(level, t).numerator_at(level)
    p, q = _oracle_pairs(x, level)
    dp, dq = np.diff(p[: j + 1]), np.diff(q[: j + 1])
    a = int(np.dot(dp, dp)) + 2 * int(np.dot(dq, dq))
    return _oracle_sum_value(a, 2 * int(np.dot(dp, dq)), level)


def oracle_cov_approx(x, y, level: int, t) -> QuadValue:
    j = _grid_index(level, t).numerator_at(level)
    px, qx = _oracle_pairs(x, level)
    py, qy = _oracle_pairs(y, level)
    dpx, dqx = np.diff(px[: j + 1]), np.diff(qx[: j + 1])
    dpy, dqy = np.diff(py[: j + 1]), np.diff(qy[: j + 1])
    a = int(np.dot(dpx, dpy)) + 2 * int(np.dot(dqx, dqy))
    b = int(np.dot(dpx, dqy)) + int(np.dot(dqx, dpy))
    return _oracle_sum_value(a, b, level)


def oracle_qv_of_sum(x, y, level: int, t) -> QuadValue:
    px, qx = _oracle_pairs(x, level)
    py, qy = _oracle_pairs(y, level)
    return oracle_qv_approx((px + py, qx + qy), level, t)


def oracle_qv_profile(x, level: int, stride: int = 1) -> QVSeries:
    p, q = _oracle_pairs(x, level)
    dp, dq = np.diff(p).reshape(-1, stride), np.diff(q).reshape(-1, stride)
    block_a = np.einsum("ij,ij->i", dp, dp) + 2 * np.einsum("ij,ij->i", dq, dq)
    block_b = 2 * np.einsum("ij,ij->i", dp, dq)
    cum_a = np.concatenate(([0], np.cumsum(block_a)))
    cum_b = np.concatenate(([0], np.cumsum(block_b)))
    rows = [
        QVRow(level, Dyadic(i * stride, level), _oracle_sum_value(a, b, level))
        for i, (a, b) in enumerate(zip(cum_a.tolist(), cum_b.tolist()))
    ]
    return QVSeries("qv", rows)


def oracle_counterexample_series(n_max: int, t) -> CounterexampleStudy:
    """One pair of full grids per level, as before the levels shared a streamed top grid."""
    if not isinstance(t, Dyadic):
        t = Dyadic.from_fraction(Fraction(t))
    x, y = TakagiFunction(AllPlus()), TakagiFunction(AlternatingM())
    tf = t.as_fraction()
    buckets: dict[str, list[QVRow]] = {k: [] for k in ("even_qv", "odd_qv", "even_cov", "odd_cov")}
    for n in range(max(1, t.exp), n_max + 1):
        gx, gy = oracle_grid_pairs(x, n), oracle_grid_pairs(y, n)
        cov = oracle_cov_approx(gx, gy, n, t)
        qsum = oracle_qv_of_sum(gx, gy, n, t)
        even = n % 2 == 0
        cov_lim = (COV_LIMIT_EVEN if even else COV_LIMIT_ODD) * tf
        sum_lim = (SUM_LIMIT_EVEN if even else SUM_LIMIT_ODD) * tf
        buckets["even_cov" if even else "odd_cov"].append(QVRow(n, t, cov, abs(cov - cov_lim)))
        buckets["even_qv" if even else "odd_qv"].append(QVRow(n, t, qsum, abs(qsum - sum_lim)))
    return CounterexampleStudy(
        even_qv=QVSeries("qv_of_sum", buckets["even_qv"]),
        odd_qv=QVSeries("qv_of_sum", buckets["odd_qv"]),
        even_cov=QVSeries("covariation", buckets["even_cov"]),
        odd_cov=QVSeries("covariation", buckets["odd_cov"]),
    )


def oracle_decimal(v: QuadValue, digits: int) -> str:
    """Round-half-even decimal through Fraction arithmetic and the exact order.

    Scales by 10**digits, takes the floor, and compares the remaining
    fractional part with 1/2 as an element of Q(sqrt(2)).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scaled = v * QuadValue(Fraction(10) ** digits, 0)
    n = scaled.floor()
    c = (scaled - n).compare(Fraction(1, 2))
    if c > 0 or (c == 0 and n % 2 != 0):
        n += 1
    sign = "-" if n < 0 else ""
    whole, part = divmod(abs(n), 10 ** digits)
    return f"{sign}{whole}.{part:0{digits}d}"


def _oracle_horner(a: list[int], p: int, q: int, level: int) -> tuple[int, int]:
    """g(v) * D * 2**(level*deg) as an integer pair, v = (p + q*sqrt2)/2**level."""
    deg = len(a) - 1
    hp, hq = a[deg], 0
    for i in range(deg - 1, -1, -1):
        hp, hq = hp * p + 2 * hq * q, hp * q + hq * p
        hp += a[i] << (level * (deg - i))
    return hp, hq


def _oracle_riemann(g, x, level: int, t, increments: bool) -> QuadValue:
    """Python-int Horner per grid point, weighted by the increment or by 1."""
    t = _grid_index(level, t)
    p, q = _oracle_pairs(x, level)
    a, den = _scaled_coeffs(g)
    pl, ql = p.tolist(), q.tolist()
    sp = sq = 0
    for j in range(t.numerator_at(level)):
        gp, gq = _oracle_horner(a, pl[j], ql[j], level)
        dp, dq = (pl[j + 1] - pl[j], ql[j + 1] - ql[j]) if increments else (1, 0)
        sp += gp * dp + 2 * gq * dq
        sq += gp * dq + gq * dp
    scale = den << (level * len(a))
    return QuadValue(Fraction(sp, scale), Fraction(sq, scale))


def oracle_follmer_sum(g, x, level: int, t) -> QuadValue:
    """:func:`follmer_sum` as a per-point loop over Python ints."""
    return _oracle_riemann(g, x, level, t, increments=True)


def oracle_time_sum(g, x, level: int, t) -> QuadValue:
    """:func:`time_sum` as a per-point loop over Python ints."""
    return _oracle_riemann(g, x, level, t, increments=False)


def oracle_float_grid(fn: TakagiFunction, level: int) -> np.ndarray:
    """float64 values on j/2**level as a direct sum of theta(m,k) * e(m,k).

    Every generation m < level adds, at each grid point, the one wedge of
    that generation whose support contains it; no midpoint recursion.
    """
    t = np.arange((1 << level) + 1) / (1 << level)
    vals = np.zeros_like(t)
    for m in range(level):
        u = t * (1 << m)
        k = np.minimum(u.astype(np.int64), (1 << m) - 1)
        vals += fn.row(m)[k] * np.minimum(u - k, k + 1 - u) * 2.0 ** (-m / 2)
    return vals


def oracle_float_ito_residual(
    coeffs: Sequence[Fraction], fn: TakagiFunction, level: int
) -> float:
    """float64 second-order residual at t = 1 over :func:`oracle_float_grid`:

        f(x(1)) - f(x(0)) - sum f'(x(s)) dx - (1/2) sum f''(x(s)) 2**-level
    """
    f = np.polynomial.Polynomial([float(c) for c in coeffs])
    x = oracle_float_grid(fn, level)
    riemann = math.fsum(f.deriv()(x[:-1]) * np.diff(x))
    time_sum = math.fsum(f.deriv(2)(x[:-1])) / (1 << level)
    return float(f(x[-1]) - f(x[0])) - riemann - time_sum / 2


@pytest.fixture
def frac():
    return Fraction
