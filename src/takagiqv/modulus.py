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

A single step h = j/2**N never builds the level-N grid.  The paper's
uniform modulus bounds how much the generations below any level can add
to an increment, so ``_search`` refines only the cells of t that could
still hold the largest |increment|, as ``extrema.grid_extrema`` does for
values, with its cell split, tail bound and float margin.  For a small
step every cell stays alive down to a width of about j, so ``_searched``
sends the steps below a measured cost rule to ``_stream``, which screens
the increments in each of the grid's blocks in place, in lag tiles
(``_lag_scan``), and those that cross into a block in a seam of under 2j
points.  A sweep of every step runs ``_lag_scan`` on the whole grid, many
steps per tile; it screens about 2**(2N - 1) increments, so it is refused
above SWEEP_LEVEL_CAP before any grid is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from . import takagi
from .extrema import SEED_LEVEL, _margin, _split, _tail
from .qfield import _SQRT2_F, Dyadic, QuadValue, Rational, _as_fraction, decimal_ratio, sign_pair
from .takagi import TakagiFunction, _check_level, pair_value

#: Sweeps of every step are refused above this grid level.  The work grows
#: fourfold a level: grid 14 sweeps in about 1.6 s in process (2.3 s from a
#: fresh CLI) on a 2-vCPU x86-64 machine, so grid 15 would take 6 s or more.
SWEEP_LEVEL_CAP = 14

#: Cells ``_search`` refines at once, 88 bytes each.  The search descends
#: one chunk to the grid level before it takes the next, so at most one
#: pending chunk per level is held: grid 22 at j = 21 peaks at 6 MB traced.
#: 2**12 and 2**13 cells run equally fast; 2**11 is slower.
SEARCH_CHUNK = 1 << 12


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
    """Exact max of |x(t + h) - x(t)| over grid t with t + h <= 1, and the first t reaching it."""
    _check_level(grid_level)
    h = Dyadic.coerce(h)
    j = h.numerator_at(grid_level) if h.exp <= grid_level else 0
    if not 0 < j <= 1 << grid_level:
        raise ValueError(f"h={h} is not a positive step on the level-{grid_level} grid")
    mp, mq, tie = (_search if _searched(grid_level, j) else _stream)(fn, grid_level, j)
    return ModulusReport(grid_level, j, (mp, mq), tie)


def _searched(level: int, j: int) -> bool:
    """Whether step j of the level grid is searched, not streamed: the cheaper by one cost estimate.

    The stream reads all 2**level points.  The search costs about as much as
    40 * 2**SEED_LEVEL streamed points for its seed and its passes per level,
    and visits about 4 * 2**level / j cells below the seed at about five
    points each.  Measured in process on a 2-vCPU x86-64 machine, mean over
    seven schemes: the stream reads a point in 10-11 ns at grids 16 to 26,
    the search's fixed cost is about 0.45 ms, and the two paths cost the
    same near j = 20 at grids 20 to 26 and between j = 64 and 256 at grid
    16, where the rule starts to search at j = 54; below grid 16 every step
    streams.
    """
    return 40 * (1 << SEED_LEVEL) + 20 * (1 << level) // j < 1 << level


def _first_largest(cands: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(|p|, |q|, i) of the largest |p + q*sqrt2| over candidates (i, p, q) given in increasing i,
    with the first i that reaches it."""
    top = None
    for i, p, q in cands:
        if sign_pair(p, q) < 0:
            p, q = -p, -q
        if top is None or sign_pair(p - top[0], q - top[1]) > 0:
            top = (p, q, i)
    return top


def _stream(fn: TakagiFunction, level: int, j: int) -> tuple[int, int, int]:
    """``_lag_scan`` of lag j over the grid's blocks, in place: t and t + h in one block.
    The steps from the j - 1 points before a block into it are scanned in a seam of at
    most 2j - 1 points, so every t is scanned once and no more than a block and 2j
    points are held."""
    seam = np.empty((2, 2 * j), dtype=np.int64)
    held = 0  # points before the block at the seam's front
    tops = []
    for off, p, q in fn._blocks(level):
        end = held + min(j, len(p))
        seam[0, held:end], seam[1, held:end] = p[: end - held], q[: end - held]
        for base, sp, sq in ((off - held, seam[0, :end], seam[1, :end]), (off, p, q)):
            if len(sp) > j:
                (mp, mq, i), = _lag_scan(sp, sq, j, j)
                tops.append((base + i, mp, mq))
        # hold the j - 1 points before the block's last one, which starts the next block
        new = min(j - 1, len(p) - 1)
        old = min(j - 1 - new, held)
        seam[:, :old] = seam[:, held - old : held]
        seam[0, old : old + new], seam[1, old : old + new] = p[len(p) - 1 - new : -1], q[len(q) - 1 - new : -1]
        held = old + new
    return _first_largest(tops)


def _search(fn: TakagiFunction, level: int, j: int) -> tuple[int, int, int]:
    """Branch and bound for the largest |g(t)|, g(t) = x(t + h) - x(t), h = j/2**N (N = level).

    Values are integer pairs at the level-N scale, as in ``extrema.grid_extrema``,
    and t runs over the grid points i = 0 .. L, L = 2**N - j.  The search starts
    from the full grid of level s = min(N, SEED_LEVEL) and refines one
    generation at a time.  A level-n cell [a, a + w], a = k*w, w = 2**(N-n),
    carries five level-n points: its ends a and a + w and its partners
    (k+J)w, (k+J+1)w and (k+J+2)w, J = j // w, between which t + h runs.
    Partners past t = 1 hold junk, read only with weight 0 or by candidates
    left out below.  A split computes the midpoints of the cell and of the
    two partner cells (``extrema._split``); with r = j mod w and b = j //
    (w/2) - 2J, the left child's partners are points b, b+1, b+2 of the five
    level-(n+1) points (k+J)w, ..., (k+J+2)w, and the right child's b+1, b+2, b+3.

    Why a dropped cell holds no largest |g|.  Write x = c + e, with c the
    generations below n and e the tail, generations n .. N-1.

    * Chord.  c is linear on every level-n cell, so c(t + h) - c(t) is
      piecewise linear on the cell, with one break where t + h crosses the
      partner point (k+J+1)w, at t = a + w - r.  Its size is largest at a,
      at that break or at a + w; each is a combination of the five points.
      Where the cell reaches past L, the candidates past L are left out: the
      last cell ends at its break (r > 0) or at a (r = 0), both at L.
    * Tail modulus.  On a level-n cell, e(t) = 2**(-n/2) y(2**n t - k) for a
      member y of the class, whose coefficients are those of the cell's
      subtree.  By the paper's uniform modulus, |y(u') - y(u)| <= sqrt2
      omega(|u' - u|), so two points in one cell differ in e by at most
      2**(-n/2) sqrt2 omega(2**n h), for h <= w.
    * Edge crossing.  When t and t + h lie in neighbouring cells, e vanishes
      at the level-n point between them, which splits the increment into two
      within-cell increments of steps at most h each.  omega is nondecreasing
      on (0, 1] (it jumps up at each 2**-n), so each is at most the bound
      above, and the tail increment is at most twice it.
    * Level-N points.  e at one level-N point is at most R_n = 2**(N - n/2)
      M_(N-n) on this scale (``extrema._tail``), so for any h the tail
      increment is at most 2 R_n.

    So every |g| on the cell is at most its largest chord candidate plus
    min(2**(N - n/2) 2 sqrt2 omega(2**n h), 2 R_n), the omega term only for
    h <= w.  And each chord candidate minus R_n is below a |g| of the grid,
    since at each candidate one of t, t + h is a level-n point, where e
    vanishes: the largest such difference seen is a lower bound, as is every
    exact |g| at level N, where w = 1, r = 0, the chord is g and both tail
    terms are 0.  A cell is kept while its bound reaches the best lower bound.

    Floats and ties.  In floats (``extrema._margin``) a cell is dropped only
    when its bound falls short by more than the margin, and every level-N
    point within the margin of the best lower bound is merged exactly by
    ``_first_largest``.  Every grid point that reaches the largest |g| lies
    in a kept cell at every level, so the first one is among the merged points.  The cells go down
    in chunks of at most SEARCH_CHUNK, each to level N before the next, the
    lower bound shared; chunks are taken left to right, so the level-N points
    come in increasing t.
    """
    N, seed = level, min(level, SEED_LEVEL)
    last = (1 << N) - j
    x = fn._grid(seed, N - seed, 2)
    k = np.arange((last >> (N - seed)) + 1)
    J = j >> (N - seed)
    # each cell's points as X[point, p or q, cell]: a, a + w, then the partners
    stack = [(seed, k, x[:, np.stack((k, k + 1, k + J, k + J + 1, k + J + 2))].transpose(1, 0, 2))]
    margin = _margin(N)
    best = -math.inf
    found = []
    while stack:
        n, k, X = stack.pop()
        if n == N:
            d = X[2] - X[0]  # g at the cells' left ends, exactly
            f = np.abs(d[1] * _SQRT2_F + d[0])
            best = max(best, float(f.max()))
            keep = np.flatnonzero(f >= best - margin)
            found.append((k[keep], d[:, keep]))
            continue
        w = 1 << (N - n)
        J, r = j >> (N - n), j & (w - 1)
        F = X[:, 1] * _SQRT2_F
        F += X[:, 0]
        fa, fb, f0, f1, f2 = F
        u = r / w
        chord = np.abs((f1 - f0) * u + (f0 - fa))  # at t = a
        brk = np.abs((fb - fa) * u + (f1 - fb))  # at t = a + w - r
        right = np.abs((f2 - f1) * u + (f1 - fb))  # at t = a + w
        if k[-1] == last >> (N - n):  # the last cell, cut at L
            right[-1] = 0.0
            if not r:
                brk[-1] = 0.0
        np.maximum(chord, brk, out=chord)
        np.maximum(chord, right, out=chord)
        tail, scale = _tail(N, n)
        reach = 2 * tail
        if j <= w:
            op, oq, od = _omega_pair(j, w)
            reach = min(reach, 2 * _SQRT2_F * (op + oq * _SQRT2_F) / od * scale)
        best = max(best, float(chord.max()) - tail)
        keep = np.flatnonzero(chord >= best - reach - margin)
        if len(keep) < len(k):
            k, X = k[keep], X[:, :, keep]
        if not len(k):
            continue
        mid = _split(fn, N, n, k, X[0], X[1])
        # the partner cells k + J and k + J + 1; one past t = 1 takes the last cell's thetas, for junk
        S = _split(fn, N, n, np.minimum(k + np.array([[J], [J + 1]]), (1 << n) - 1), X[2:4], X[3:5])
        b = (j >> (N - n - 1)) - 2 * J
        partners = (X[2], S[0], X[3], S[1], X[4])
        C = np.empty((5, 2, len(k), 2), dtype=np.int64)  # the children 2k and 2k + 1, interleaved
        C[0, :, :, 0], C[1, :, :, 0], C[0, :, :, 1], C[1, :, :, 1] = X[0], mid, mid, X[1]
        for i in range(3):
            C[2 + i, :, :, 0], C[2 + i, :, :, 1] = partners[b + i], partners[b + i + 1]
        kids = np.stack((2 * k, 2 * k + 1), axis=1).reshape(-1)
        C = C.reshape(5, 2, -1)
        if kids[-1] > last >> (N - n - 1):  # the last cell's right half starts past L
            kids, C = kids[:-1], C[:, :, :-1]
        for lo in reversed(range(0, len(kids), SEARCH_CHUNK)):
            stack.append((n + 1, kids[lo : lo + SEARCH_CHUNK], C[:, :, lo : lo + SEARCH_CHUNK]))
    idx = np.concatenate([c[0] for c in found])
    d = np.concatenate([c[1] for c in found], axis=1)
    sel = np.flatnonzero(np.abs(d[1] * _SQRT2_F + d[0]) >= best - margin)
    return _first_largest(zip(idx[sel].tolist(), d[0, sel].tolist(), d[1, sel].tolist()))


def sweep_all_steps(fn: TakagiFunction, grid_level: int) -> list[ModulusReport]:
    """Reports for every step h = j/2**grid_level, j = 1..2**grid_level.

    Refused above SWEEP_LEVEL_CAP, before any grid is built.
    """
    if grid_level > SWEEP_LEVEL_CAP:
        raise ValueError(f"a sweep of every step is refused above grid {SWEEP_LEVEL_CAP}, got {grid_level}: "
                         f"scan single steps (--h)")
    p, q = fn._grid(grid_level, 0, (1 << grid_level) - 1)  # the grid, then 2**grid_level - 1 zeros
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


def _powers(n: int) -> tuple[int, int]:
    """sum_{m<n} 2**(m/2) = e + o*sqrt2: the even m give e = 2**ceil(n/2) - 1, the odd o = 2**floor(n/2) - 1."""
    return (1 << (n + 1) // 2) - 1, (1 << n // 2) - 1


def _peak_tail(n: int) -> tuple[int, int]:
    """3 * 2**n * 2**(-n/2) (2 + sqrt2)/3 = 2**(n/2) (2 + sqrt2), as the pair (p, q) of p + q*sqrt2."""
    return 2 << n // 2, 1 << (n + 1) // 2


def _hat(n: int) -> tuple[int, int]:
    """3 * 2**n * A(h_n) as a pair: 2 sum_{m<n} 2**(m/2) plus the peak tail."""
    (e, o), (tp, tq) = _powers(n), _peak_tail(n)
    return 2 * e + tp, 2 * o + tq


def witness_ratios(kind: str, n_lo: int = 1, n_hi: int = 12) -> list[WitnessRow]:
    """Exact sharpness witnesses for the two envelope bounds.

    part_a: the all-plus increment from 0 to h_n equals
            omega(h_n) - (1 + sqrt2) h_n, so the ratio to omega tends to 1.
    part_b: the negated-half-split increment across [t_n, t_n + h_n] equals
            sqrt2 omega(h_n) - (sqrt2 + 2) h_n; the ratio tends to sqrt2.

    Each increment is a closed form in n over the integers, O(1) big-int
    operations a row.  With A the all-plus function, A(t) = sum_m 2**(-m/2)
    dist(2**m t, Z), and A(1/3) = A(2/3) = (2 + sqrt2)/3 since dist(2**m/3, Z)
    = 1/3 for every m.  The binary digits of h_n = (2/3) 2**-n and of
    t_n = 1/2 - delta, delta = (1/3) 2**-n = h_(n+1), end in the period-2
    tail of 1/3, so:

    * part_a.  For m < n, 2**m h_n <= 1/3, so generation m adds
      2**(-m/2) 2**m h_n; from n on the tail is 2**(-n/2) A(2/3):

          A(h_n) = h_n sum_{m<n} 2**(m/2) + 2**(-n/2) (2 + sqrt2)/3,

      and the geometric sum splits by the parity of m into
      (2**ceil(n/2) - 1) + sqrt2 (2**floor(n/2) - 1).
    * part_b.  The negated half-split function is -A on [0, 1/2] and
      A(t - 1/2) - 1/2 on [1/2, 1], so the increment across t_n is
      A(1/2 - delta) + A(delta) - 1/2.  Generation 0 adds 1/2 - delta at
      1/2 - delta, each 1 <= m < n adds 2**(-m/2) 2**m delta, and from n on
      the tail is 2**(-n/2) A(2/3):

          A(1/2 - delta) = 1/2 - delta + delta sum_{1<=m<n} 2**(m/2) + 2**(-n/2) (2 + sqrt2)/3,

      so the increment is delta (sum_{m<n} 2**(m/2) - 2) + 2**(-n/2) (2 + sqrt2)/3
      + A(delta), and A(delta) = A(h_(n+1)) is part_a at n + 1.

    Each row's triple is checked against the one ``_omega_pair`` gives for
    the identity above, by cross-multiplication; a mismatch raises.
    """
    if kind not in ("part_a", "part_b"):
        raise ValueError("kind must be 'part_a' or 'part_b'")
    rows = []
    for n in range(n_lo, n_hi + 1):
        D = 3 << n  # h_n = 2/D
        om = op, oq, od = _omega_pair(2, D)
        # want: the identity's right side, omega(h_n) from _omega_pair
        if kind == "part_a":
            (p, q), d = _hat(n), D
            want = op * D - 2 * od, oq * D - 2 * od, od * D
        else:
            # over 2D = 3 * 2**(n+1): the first two terms are over D (delta = 1/D), so doubled
            (e, o), (tp, tq), (ap, aq) = _powers(n), _peak_tail(n), _hat(n + 1)
            p, q, d = 2 * (e - 2 + tp) + ap, 2 * (o + tq) + aq, 2 * D
            want = 2 * oq * D - 4 * od, op * D - 2 * od, od * D
        if p * want[2] != want[0] * d or q * want[2] != want[1] * d:
            raise ArithmeticError(f"witness identity failed at n={n} ({kind})")
        rows.append(WitnessRow(n, QuadValue.from_pair(p, q, d), decimal_ratio((p, q, d), om, 8)))
    return rows
