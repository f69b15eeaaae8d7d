"""Modulus of continuity: the sqrt(h)-scale envelope and its witnesses.

With nu(h) the integer part of log2(1/h), the envelope is

    omega(h) = (1 + 1/sqrt2) * h * 2**(nu(h)/2) + (1/3)(sqrt8 + 2) * 2**(-nu(h)/2)

an O(sqrt h) function, exact in Q(sqrt(2)) for rational h.  Increments of
the all-plus function never exceed omega(h); increments of any member of
the class never exceed sqrt2 * omega(h).  Both bounds are sharp along the
witness steps h_n = (2/3) * 2**-n: from t = 0 for the all-plus function,
and across t_n = 1/2 - (1/3) * 2**-n for the negated half-split function.

For h = a/d, in lowest terms or not, nu is one integer formula,
(d // a).bit_length() - 1, so h at an exact power of two gets
nu(2**-n) = n even though omega jumps there.  omega(h) is one integer pair
over 3d * 2**(nu//2), doubled for even nu, read off from a, d and the
parity of nu.

A scan report is four integers: the step h = j/2**level, its largest
increment as the integer pair (p, q) over 2**level, and the first t that
reaches it.  nu, omega and the ratio x / omega are computed from them
when read, the ratio as x * conj(omega) / norm(omega)
(``qfield.decimal_ratio``), as are the witness ratios.

One kernel serves a single step and a sweep of every step: the increments
x(t + h) - x(t) are screened in lag tiles of at most ``takagi.BLOCK``
cells, many steps per tile when the grid is small, then merged exactly
(``_lag_scan``).  A sweep of grid N screens about 2**(2N - 1) increments,
so it is refused above SWEEP_LEVEL_CAP before any grid is built; single
steps run at every grid level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import takagi
from .qfield import _SQRT2_F, SQRT2, Dyadic, QuadValue, Rational, _as_fraction, decimal_ratio, sign_pair
from .schemes import AllPlus, NegHalfSplit
from .takagi import TakagiFunction, pair_value, thirds_value

#: Sweeps of every step are refused above this grid level.  The work grows
#: fourfold a level: grid 14 sweeps in about 1.6 s in process (2.3 s from a
#: fresh CLI) on a 2-vCPU x86-64 machine, so grid 15 would take 6 s or more.
SWEEP_LEVEL_CAP = 14


def _nu(a: int, d: int) -> int:
    """nu(a/d) for integers 0 < a <= d, else ValueError: 2**n <= d/a < 2**(n+1)
    exactly when 2**n <= d // a < 2**(n+1)."""
    if not 0 < a <= d:
        raise ValueError(f"h={Fraction(a, d)} outside (0, 1]")
    return (d // a).bit_length() - 1


def nu(h: Rational) -> int:
    """The unique n >= 0 with 2**-(n+1) < h <= 2**-n, by integer arithmetic."""
    h = _as_fraction(h)
    return _nu(h.numerator, h.denominator)


def omega(h: Rational) -> QuadValue:
    """The continuity envelope at h, exact in Q(sqrt(2)).

    For h = a/d in lowest terms and s = 3a * 4**(nu//2), omega(h) is the
    one integer pair

        (2s + 4d + (s + 4d) sqrt2) / (3d * 2**(nu//2 + 1))   for even nu,
        (s + 2d + (s + d) sqrt2) / (3d * 2**(nu//2))          for odd nu.
    """
    h = _as_fraction(h)
    return QuadValue.from_pair(*_omega_pair(h.numerator, h.denominator))


def _omega_pair(a: int, d: int) -> tuple[int, int, int]:
    """omega(a/d) as (p, q, den); a and d need not be coprime."""
    n = _nu(a, d)
    k = n // 2
    s = 3 * a << 2 * k
    if n % 2:
        return s + 2 * d, s + d, 3 * d << k
    return 2 * s + 4 * d, s + 4 * d, 3 * d << (k + 1)


@dataclass(frozen=True)
class ModulusReport:
    """Largest grid increment at the grid step h = j/2**level versus the envelope omega(h).

    Four integers: the grid level, the step numerator j, the pair (p, q) of
    the largest |increment| (p + q*sqrt(2)) / 2**level, and tie, the first
    t = tie / 2**level that reaches it.  The other fields are computed from
    these integers when read.
    """

    level: int
    j: int
    pair: tuple[int, int]
    tie: int

    @property
    def h(self) -> Fraction:
        return Fraction(self.j, 1 << self.level)

    @property
    def nu(self) -> int:
        return _nu(self.j, 1 << self.level)

    @property
    def omega(self) -> QuadValue:
        return QuadValue.from_pair(*_omega_pair(self.j, 1 << self.level))

    @property
    def scan_max(self) -> QuadValue:
        return pair_value(*self.pair, self.level)

    @property
    def witness_t(self) -> Fraction:
        return Fraction(self.tie, 1 << self.level)

    @property
    def ratio_decimal(self) -> str:
        """scan_max / omega to 8 places."""
        return decimal_ratio((*self.pair, 1 << self.level), _omega_pair(self.j, 1 << self.level), 8)


def _windows(seg: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The (w, r) view seg[k + c] of a contiguous 1-D array of length w + r - 1:
    ``sliding_window_view(seg, r)`` without its per-call argument checks,
    which cost about as much as the subtraction of a small tile."""
    return np.ndarray(shape, seg.dtype, seg, 0, (seg.itemsize, seg.itemsize))


def _lag_scan(p: np.ndarray, q: np.ndarray, first: int, last: int) -> list[tuple[int, int, int]]:
    """(p*, q*, i*) for every lag first <= j <= last: the largest |x(i + j) - x(i)|
    over the grid pairs p, q, as the pair of its absolute value, and the
    smallest i that reaches it.

    The increments are screened in lag tiles: lags [a, a + w) by rows
    [r0, r0 + r), w * r <= BLOCK cells, laid out lag-major.  Row k of a tile
    is p[r0 + a + k + c] - p[r0 + c] for c < r, a window of p minus one row
    of it, written into reused int64 scratch, and the same for q.  Once
    every lag of a range has at most BLOCK rows, a tile takes as many lags
    as fit, so a small grid sweeps all its steps in one tile; a single lag
    is one row, block by block.  The grid is followed by last - first
    zeros: the last row tile of a multi-lag range reads into them, and its
    cells with i + j past the grid end are set to -inf, so they never survive.

    |dp + dq*sqrt2| goes into one float64 buffer.  A cell survives when it
    is within a rigorous error bound of its lag's float maximum; the
    survivors are merged exactly in index order, keeping the first index
    of the largest value.
    """
    n = len(p) - (last - first)
    budget = min(takagi.BLOCK, n * (last + 1 - first))
    dp_buf, dq_buf = np.empty((2, budget), dtype=np.int64)
    f_buf = np.empty(budget)
    out: list[tuple[int, int, int]] = []
    a = first
    while a <= last:
        rows = n - a
        w = min(last + 1 - a, max(1, budget // rows))
        best: list = [None] * w
        for r0 in range(0, rows, budget // w):
            r = min(budget // w, rows - r0)
            lo, hi = r0 + a, r0 + a + r + w - 1
            shape = (w, r)
            dp = np.subtract(_windows(p[lo:hi], shape), p[r0 : r0 + r], out=dp_buf[: w * r].reshape(shape))
            dq = np.subtract(_windows(q[lo:hi], shape), q[r0 : r0 + r], out=dq_buf[: w * r].reshape(shape))
            f = np.multiply(dq, _SQRT2_F, out=f_buf[: w * r].reshape(shape))
            f += dp
            np.abs(f, out=f)
            if hi > n:  # one row tile, r = n - lo: lags a + k >= a + 1 lose their last k rows
                for k in range(1, w):
                    f[k, r - k :] = -np.inf
            # |f - |x|| <= (|x| + 6|dq|) * 2**-53 in every cell; the cut is ten times wider than
            # the two such errors by which a tie for the maximum can trail the float maximum
            cut = f.max(axis=1)
            cut *= 1.0 - 2.0 ** -48
            cut -= (4.0 * max(-int(dq.min()), int(dq.max())) + 1.0) * 2.0 ** -48
            cells = np.flatnonzero(f >= cut[:, None])
            lags, cols = np.divmod(cells, r)
            for k, c, xp, xq in zip(lags.tolist(), cols.tolist(), dp_buf[cells].tolist(), dq_buf[cells].tolist()):
                if sign_pair(xp, xq) < 0:
                    xp, xq = -xp, -xq
                top = best[k]
                if top is None or sign_pair(xp - top[0], xq - top[1]) > 0:
                    best[k] = (xp, xq, r0 + c)
        out += best
        a += w
    return out


def modulus_scan(fn: TakagiFunction, grid_level: int, h: Dyadic | Rational) -> ModulusReport:
    """Exact max of |x(t + h) - x(t)| over grid t with t + h <= 1."""
    h = Dyadic.coerce(h)
    j = h.numerator_at(grid_level) if h.exp <= grid_level else 0
    if not 0 < j <= 1 << grid_level:
        raise ValueError(f"h={h} is not a positive step on the level-{grid_level} grid")
    p, q = fn.grid_pairs(grid_level)
    (mp, mq, tie), = _lag_scan(p, q, j, j)
    return ModulusReport(grid_level, j, (mp, mq), tie)


def sweep_all_steps(fn: TakagiFunction, grid_level: int) -> list[ModulusReport]:
    """Reports for every step h = j/2**grid_level, j = 1..2**grid_level.

    Refused above SWEEP_LEVEL_CAP, before any grid is built.
    """
    if grid_level > SWEEP_LEVEL_CAP:
        raise ValueError(f"a sweep of every step is refused above grid {SWEEP_LEVEL_CAP}, got {grid_level}: "
                         f"scan single steps (--h)")
    p, q = np.zeros((2, 2 << grid_level), dtype=np.int64)  # the grid, then 2**grid_level - 1 zeros
    p[: (1 << grid_level) + 1], q[: (1 << grid_level) + 1] = fn.grid_pairs(grid_level)
    return [ModulusReport(grid_level, j, (mp, mq), tie)
            for j, (mp, mq, tie) in enumerate(_lag_scan(p, q, 1, 1 << grid_level), 1)]


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
