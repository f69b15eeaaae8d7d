"""Generalized Takagi functions: wedge series with +/-1 coefficients.

A :class:`TakagiFunction` is the uniform limit of the partial sums

    x^n(t) = sum_{m<n} sum_{k<2**m} theta(m,k) * e(m,k)(t)

for a coefficient scheme theta.  Wedges of generation m vanish on the
grid j/2**m and every finer statement follows from that: the value at a
dyadic point j/2**N is already exact at truncation level N.

Evaluation surfaces:

* ``partial_sum`` / ``at_dyadic`` -- exact scalar values: the wedges at t
  add up as one integer pair over den(t) * 2**ceil(n/2), turned into a
  QuadValue once at the end;
* ``_blocks`` -- the grid j/2**N as integer pairs (p, q) with value
  (p + q*sqrt(2)) / 2**N in blocks of at most BLOCK + 1 points, built by
  the midpoint recursion (one numpy pass per generation): the series is
  local, so each cell of a coarse grid refines on its own, and a
  reduction never holds more than one block.  A block asks the scheme for
  its own coefficients, so a function holds nothing but its scheme.  It
  is the only grid builder (``extrema.grid_extrema`` refines single cells
  of a coarse grid by the same recursion); ``grid_blocks(x, level, end)``,
  the one grid reader of the sums, reads it or a caller's pair grid in its
  layout up to point end: it alone knows the block layout and where a
  prefix read stops;
* ``grid_pairs`` -- the same grid at once, its blocks copied into one
  array;
* ``approx`` -- truncated series with a certified geometric tail bound,
  its level from a bit-length estimate and exact integer sign tests;
* ``thirds_value`` -- closed-form exact values at points with denominator
  3 * 2**n for the three named functions that admit them, as the level-n
  integer pair plus the closed-form tail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import Callable, Iterator, Union

import numpy as np

from .qfield import Dyadic, QuadValue, Rational, _as_fraction, pow2_half, sign_pair
from .schemes import AllPlus, CoefficientScheme, HalfSplit, _Negated

# Sum of all wedge heights 2**-(m+2)/2: the series tail after M generations
# is bounded by TAIL_SUM * 2**-(M/2) in sup norm.
TAIL_SUM = QuadValue(2, 1)  # 2 + sqrt(2) = 1 / (1 - 2**-1/2)

#: Value of the all-plus function at 1/3 and 2/3 (geometric sum of
#: one wedge value 1/3 per generation, heights 2**-m/2).
THIRDS_PEAK = QuadValue(Fraction(2, 3), Fraction(1, 3))

# int64 is exact for grid values and their squared-increment sums up to
# this level: |p|, |q| <= 2**(level+2) and QV sums stay below 2**(2*level+6).
GRID_LEVEL_CAP = 26

#: Width in grid intervals (a power of two) of the blocks ``_blocks``
#: streams: two int64 arrays of BLOCK + 1 points, about 1 MB, stay in cache.
BLOCK = 1 << 16

Block = tuple[int, np.ndarray, np.ndarray]
PairGrid = tuple[np.ndarray, np.ndarray]
GridLike = Union["TakagiFunction", PairGrid]
Evaluable = Union["TakagiFunction", Callable[[Fraction], "QuadValue | Rational"]]


def _check_unit_interval(t: Fraction) -> None:
    if not 0 <= t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")


class TakagiFunction:
    """One member of the class, given by its coefficient scheme."""

    def __init__(self, scheme: CoefficientScheme) -> None:
        self.scheme = scheme

    def __repr__(self) -> str:
        return f"TakagiFunction({self.scheme.spec})"

    def row(self, m: int) -> np.ndarray:
        """Generation-m coefficients, the scheme's ``row``."""
        return self.scheme.row(m)

    # -- scalar evaluation ----------------------------------------------------

    def partial_sum(self, n: int, t: Rational) -> QuadValue:
        """Exact value of the n-generation partial sum at rational t."""
        t = _as_fraction(t)
        _check_unit_interval(t)
        return QuadValue.from_pair(*self._partial_pair(n, t))

    def _partial_pair(self, n: int, t: Fraction) -> tuple[int, int, int]:
        """The n-generation partial sum at t in [0, 1] as (p, q, den): (p + q*sqrt(2)) / den.

        With t = u/v and c = ceil(n/2), den = v * 2**c: the generation-m
        wedge containing t contributes theta * min(x, v - x) / v * 2**(-m/2),
        x = u * 2**m - k * v its offset into the wedge's cell, and
        2**c * 2**(-m/2) is a power of two (times sqrt(2) for odd m) for
        every m < n.
        """
        u, v = t.numerator, t.denominator
        c = (n + 1) // 2
        theta = self.scheme.theta
        p = q = 0
        for m in range(n):
            # t * 2**m = k + x/v; at t = 1, x = 0 and no wedge contributes
            k, x = divmod(u << m, v)
            r = min(x, v - x)
            if r:
                term = r << (c - (m + 1) // 2)
                if theta(m, k) < 0:
                    term = -term
                if m % 2:
                    q += term
                else:
                    p += term
        return p, q, v << c

    def at_dyadic(self, t: Dyadic | Rational) -> QuadValue:
        """Exact value at a dyadic point; generations >= exp(t) all vanish there."""
        t = Dyadic.coerce(t)
        return self.partial_sum(t.exp, t.as_fraction())

    def approx(self, t: Rational, tol: Rational) -> tuple[QuadValue, QuadValue]:
        """Truncated value and a certified bound on the discarded tail.

        Uses the smallest truncation level M whose geometric tail bound
        (2 + sqrt(2)) * 2**-(M+2)/2 is <= tol; the true value differs from
        the returned one by at most that bound.
        """
        t = _as_fraction(t)
        _check_unit_interval(t)
        tol = _as_fraction(tol)
        if tol <= 0:
            raise ValueError("tol must be > 0")
        # tol = a/b: the first level with (2 + sqrt(2)) * b <= a * 2**((level+2)/2), squared; none
        # is at or below the bit-length difference of b**2 and a**2, and one is within 5 levels above
        aa, bb = tol.numerator**2, tol.denominator**2
        level = next(n for n in count(max(0, bb.bit_length() - aa.bit_length() + 1))
                     if sign_pair((aa << n + 2) - 6 * bb, -4 * bb) >= 0)
        return self.partial_sum(level, t), TAIL_SUM * pow2_half(-(level + 2))

    # -- bulk evaluation on dyadic grids ---------------------------------------

    def _refine(
        self, p: np.ndarray, q: np.ndarray, start: int, stop: int, first: int,
        buf: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the midpoint recursion from generation start to stop, in the rows of buf.

        p, q hold the level-start values at the consecutive grid points
        first, first + 1, ...; refining leaves old values fixed and sets each
        new midpoint to the average of its neighbours plus theta times the
        new wedge height.  The result holds the level-stop values between
        the same two endpoints.  Every generation, the result among them, is
        written into the (4, m) int64 scratch array buf, m at least the
        result's length, which p and q must not share.

        Each generation's coefficients are asked of the scheme for these
        cells alone: one ``constant``, or ``thetas`` at their indices.
        """
        for n in range(start, stop):
            cells = len(p) - 1
            size = 2 * cells + 1
            # alternate between two row pairs: the old generation is the other one
            i = 2 * (n % 2)
            p_new, q_new = buf[i, :size], buf[i + 1, :size]
            for old, new in ((p, p_new), (q, q_new)):
                np.left_shift(old, 1, out=new[::2])
                np.add(old[:-1], old[1:], out=new[1::2])
            # wedge height 2**-(n+2)/2 rescaled by 2**(n+1): 2**(n//2) in the
            # rational part for even n, in the sqrt2 part for odd n
            mid = p_new[1::2] if n % 2 == 0 else q_new[1::2]
            theta = self.scheme.constant(n)
            if theta is None:
                lo = first << (n - start)
                theta = self.scheme.thetas(n, np.arange(lo, lo + cells))
            mid += theta << (n // 2)
            p, q = p_new, q_new
        return p, q

    def grid_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Integer pairs for all grid values: x(j/2**level) = (p_j + q_j*sqrt2)/2**level.

        The blocks of ``_blocks`` copied into one array each.
        """
        _check_level(level)
        p, q = np.empty((2, (1 << level) + 1), dtype=np.int64)
        for off, bp, bq in self._blocks(level):
            p[off : off + len(bp)] = bp
            q[off : off + len(bq)] = bq
        return p, q

    def _blocks(self, level: int) -> Iterator[Block]:
        """The level grid as (offset, p, q) blocks, left to right: the one grid builder.

        With w = min(BLOCK, 2**level), block i holds the points i*w .. (i+1)*w,
        so neighbouring blocks share an endpoint.  Block i is cell i of the
        coarse grid, of level c = level - log2 w, refined on its own: its
        values depend only on the cell's endpoints and the coefficients
        inside it.  The coarse grid is the one cell [0, 1] refined to level
        c in a scratch array of 2**c + 1 points.

        Every block is built in the same scratch memory, since fresh arrays of
        this size take new pages each time: a block's arrays hold its values
        only until the next block is asked for.
        """
        _check_level(level)
        bits = block_bits(level)
        coarse = level - bits
        zp, zq = np.zeros((2, 2), dtype=np.int64)
        cbuf = np.empty((4, (1 << coarse) + 1), dtype=np.int64)
        cp, cq = self._refine(zp, zq, 0, coarse, 0, cbuf)
        buf = np.empty((4, (1 << bits) + 1), dtype=np.int64)
        for c in range(1 << coarse):
            p, q = self._refine(cp[c : c + 2], cq[c : c + 2], coarse, level, c, buf)
            yield c << bits, p, q


def _check_level(level: int) -> None:
    if not 0 <= level <= GRID_LEVEL_CAP:
        raise ValueError(f"grid level must be in [0, {GRID_LEVEL_CAP}]")


def block_bits(level: int) -> int:
    """log2 of the width of the blocks a level grid streams in."""
    return min(BLOCK, 1 << level).bit_length() - 1


def grid_blocks(x: GridLike, level: int, end: int | None = None) -> Iterator[Block]:
    """The (offset, p, q) blocks of the level grid of x that hold its points 0 .. end (all by default),
    the last one trimmed at end, and no later block: a function's ``_blocks``, or views of a caller's
    pair grid in the same layout, refused when called unless it has 2**level + 1 points."""
    if isinstance(x, TakagiFunction):
        blocks = x._blocks(level)
    else:
        p, q = (np.asarray(a) for a in x)
        if len(p) != (1 << level) + 1:
            raise ValueError("pair grid has wrong length for this level")
        blocks = ((off, p[off : off + BLOCK + 1], q[off : off + BLOCK + 1]) for off in range(0, 1 << level, BLOCK))
    end = 1 << level if end is None else end
    return ((off, bp[: end - off + 1], bq[: end - off + 1])
            for off, bp, bq in islice(blocks, max(1, -(-end >> block_bits(level)))))


def _grid_index(level: int, t: Dyadic | Rational) -> Dyadic:
    t = Dyadic.coerce(t)
    _check_unit_interval(t.as_fraction())
    if t.exp > level:
        raise ValueError(f"t={t} not on the level-{level} dyadic grid")
    return t


def pair_value(p: int, q: int, level: int) -> QuadValue:
    """(p + q*sqrt(2)) / 2**level as a QuadValue."""
    return QuadValue.from_pair(p, q, 1 << level)


# -- closed-form values at thirds points --------------------------------------


def _thirds_exponent(t: Fraction) -> int:
    """n such that t = a / (3 * 2**n) in lowest terms, or raise."""
    den = t.denominator
    if den % 3 != 0:
        raise ValueError(f"t={t} does not have denominator 3 * 2**n")
    rest = den // 3
    if rest & (rest - 1):
        raise ValueError(f"t={t} does not have denominator 3 * 2**n")
    return rest.bit_length() - 1


def _all_plus_thirds(t: Fraction) -> tuple[int, int, int]:
    """Exact all-plus value at t = a/(3*2**n) via self-similarity, as (p, q, den).

    On the dyadic interval of width 2**-n containing t the tail of the
    series is a rescaled copy of the whole function, so the value equals
    the partial sum at level n plus 2**(-n/2) times the value at the
    fractional part 2**n*t mod 1, which is 1/3 or 2/3 -- both giving
    THIRDS_PEAK = (2 + sqrt(2))/3.  Over the partial sum's denominator
    3 * 2**n * 2**ceil(n/2), that tail is the pair (2**(n+1), 2**n) for
    even n and (2**(n+1), 2**(n+1)) for odd n.
    """
    n = _thirds_exponent(t)
    p, q, den = TakagiFunction(AllPlus())._partial_pair(n, t)
    return p + (2 << n), q + (1 << (n + n % 2)), den


def _thirds_pair(scheme: CoefficientScheme, t: Fraction) -> tuple[int, int, int]:
    if isinstance(scheme, _Negated) and isinstance(scheme.inner, (AllPlus, HalfSplit)):
        # negated coefficients negate the function
        p, q, den = _thirds_pair(scheme.inner, t)
        return -p, -q, den
    if isinstance(scheme, AllPlus) or (isinstance(scheme, HalfSplit) and 2 * t <= 1):
        return _all_plus_thirds(t)
    if isinstance(scheme, HalfSplit):
        # reflected around t = 1/2: the value is 1/2 minus the all-plus value at t - 1/2
        p, q, den = _all_plus_thirds(t - Fraction(1, 2))
        return den - 2 * p, -2 * q, 2 * den
    raise ValueError(
        f"thirds evaluation supports all_plus/half_split/neg_half_split, not {scheme.spec}"
    )


def thirds_value(fn: TakagiFunction, t: Rational) -> QuadValue:
    """Exact value at a point with denominator 3 * 2**n.

    Supported for the all-plus and half-split functions and their
    negations (neg_half_split among them): half-split values at such points
    reduce to the all-plus case through the reflection identity around
    t = 1/2.
    """
    t = _as_fraction(t)
    _check_unit_interval(t)
    return QuadValue.from_pair(*_thirds_pair(fn.scheme, t))


# -- coefficient recovery ------------------------------------------------------


def recover_coefficient(f: Evaluable, m: int, k: int) -> QuadValue:
    """Wedge coefficient of any function via its second difference:

        2**(m/2) * (2*f((2k+1)/2**(m+1)) - f(k/2**m) - f((k+1)/2**m))

    For members of this class the result is the scheme's +/-1; for other
    functions it is their Faber--Schauder coefficient.
    """
    if isinstance(f, TakagiFunction):
        ev = f.at_dyadic
    else:
        raw = f

        def ev(t: Fraction) -> QuadValue:
            v = raw(t)
            return v if isinstance(v, QuadValue) else QuadValue(_as_fraction(v), 0)

    mid = ev(Fraction(2 * k + 1, 1 << (m + 1)))
    left = ev(Fraction(k, 1 << m))
    right = ev(Fraction(k + 1, 1 << m))
    return pow2_half(m) * (mid * 2 - left - right)


def recover_rows(fn: TakagiFunction, max_m: int) -> list[np.ndarray]:
    """Recover all coefficients for m <= max_m in bulk, exactly.

    Reads one grid of values at level max_m + 1 and forms the second
    differences per generation; raises if any recovered value is not +/-1.
    """
    level = max_m + 1
    p, q = fn.grid_pairs(level)
    out: list[np.ndarray] = []
    for m in range(max_m + 1):
        step = 1 << (level - m)
        half = step >> 1
        left_p, left_q = p[::step], q[::step]
        mid_p, mid_q = p[half::step], q[half::step]
        dp = 2 * mid_p - left_p[:-1] - left_p[1:]
        dq = 2 * mid_q - left_q[:-1] - left_q[1:]
        # theta = 2**(m/2) * (dp + dq*sqrt2) / 2**level, which is +/-1 iff
        # the rational part matches and the irrational part cancels.
        if m % 2 == 0:
            ok = (dq == 0) & (dp != 0) & (dp * (1 << (m // 2)) == np.sign(dp) * (1 << level))
            theta = np.sign(dp)
        else:
            ok = (dp == 0) & (dq != 0) & (dq * (1 << ((m + 1) // 2)) == np.sign(dq) * (1 << level))
            theta = np.sign(dq)
        if not bool(ok.all()):
            raise ArithmeticError(f"recovered coefficient not +/-1 at generation {m}")
        out.append(theta.astype(np.int64))
    return out
