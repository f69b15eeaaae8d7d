"""Exact arithmetic over the quadratic field Q(sqrt(2)).

Every number produced by the wedge-basis machinery in this package --
wedge heights 2**(-m/2), values on dyadic grids, moduli of continuity,
quadratic-variation sums -- lies in the field {a + b*sqrt(2) : a, b rational}.
Every kernel returns such a value as integers (p, q, d), (p + q*sqrt(2)) / d;
:class:`QuadValue` holds that triple in lowest terms and does field arithmetic,
a total order without floating point and correctly rounded decimals on it in
integers.  :class:`Dyadic` is the companion type for grid points j / 2**N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm
from operator import index
from typing import Union

import numpy as np

Rational = Union[int, Fraction]

_SQRT2_F = 1.4142135623730951


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


def sign_pair(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(2) for integers a, b.

    When a and b have opposite signs the result hinges on comparing a**2
    with 2*b**2; equality there is impossible for b != 0 because sqrt(2)
    is irrational.
    """
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else -1
    return 1 if a * a < 2 * b * b else -1


def _floor_sqrt2(q: int) -> int:
    """floor(q*sqrt(2)), exact: 2*q*q is never a perfect square for q != 0."""
    return isqrt(2 * q * q) if q >= 0 else -isqrt(2 * q * q) - 1


def decimal_pair(p: int, q: int, den: int, digits: int) -> str:
    """(p + q*sqrt(2)) / den, den > 0, rounded half to even to `digits` places.

    Integers only: m = floor(2 * value * 10**digits) decides the rounding,
    since the scaled value's fractional part is >= 1/2 exactly when m is
    odd.  It is exactly 1/2 only when q == 0 and den divides the scaled
    numerator, because sqrt(2) is irrational.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    s = 10 ** digits
    num = 2 * s * p
    m = (num + _floor_sqrt2(2 * s * q)) // den
    n = m >> 1
    if m & 1 and (q or num % den or n & 1):
        n += 1
    sign = "-" if n < 0 else ""
    whole, part = divmod(abs(n), s)
    return f"{sign}{whole}.{part:0{digits}d}"


def _float_pair(p: np.ndarray, q: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p + q*sqrt(2)) / d in float64, and (|p| + 2|q|) / d * 2**-50, for int64 arrays."""
    fp, fq, fd = p.astype(np.float64), q.astype(np.float64), d.astype(np.float64)
    tol = (np.abs(fp) + 2.0 * np.abs(fq)) / (fd * 2.0 ** 50)
    return (fq * _SQRT2_F + fp) / fd, tol


def decimal_column(p: np.ndarray, q: np.ndarray, d: int | np.ndarray, digits: int,
                   over: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> tuple[list[float], dict[int, str]]:
    """Screened decimal_pair(p[i], q[i], d[i], digits) for int64 arrays p, q and d > 0 (or one d);
    with ``over`` = (p2, q2, d2), decimal_ratio((p[i], q[i], d[i]), (p2[i], q2[i], d2[i]), digits).

    Returns the values rounded to `digits` places as floats, which print as
    their decimals with ``%.{digits}f``, and the decimals the exact path
    gives for the other rows, by index.  Ziv's strategy for correctly rounded
    results (ACM TOMS 17(3), 1991): v = ((q * sqrt2) + p) / d and x = v *
    10**digits are computed in float64 to within (5|p| + 7*sqrt(2)*|q|) *
    10**digits / d * 2**-53 (eight roundings; d and the quotient are exact for
    d a power of two), and tol = (|p| + 2|q|) * 10**digits / d * 2**-50 is
    at least 1.6 times that.  A quotient V/W of floats with such bounds T
    and U is within (12/11) (T + |V/W| U) / |W| plus two roundings where 8U
    < |W|, and tol = 10**digits (T + |V/W| U) / |W| + |x| * 2**-50 is at
    least 1.4 times that; the other rows fall back.  A row whose x lies
    farther than tol from every rounding half rounds to n = rint(x), and n /
    10**digits prints as n, since |n| < 2**49.  The exact path decides exact
    ties (q == 0 at a half), near ties, and every |x| >= 2**49, where tol
    reaches 1/2.
    """
    if not 1 <= digits <= 22:
        raise ValueError("digits must be in [1, 22]")
    s = float(10 ** digits)  # exact up to 10**22
    d = np.broadcast_to(d, p.shape)
    x, tol = _float_pair(p, q, d)
    if over is not None:
        w, u = _float_pair(*over)
        size = np.abs(w)
        with np.errstate(divide="ignore", invalid="ignore"):  # w == 0 falls back
            x /= w
            tol = (tol + u * np.abs(x)) / size + np.abs(x) * 2.0 ** -50
        fallback = u * 8.0 >= size
        x[fallback], tol[fallback] = 0.0, 1.0
    x *= s
    tol *= s
    n = np.rint(x)
    x -= n  # exact: x and its nearest integer are within a factor of two (or n == 0)
    near = np.flatnonzero(np.abs(x, out=x) >= np.subtract(0.5, tol, out=tol)).tolist()
    n /= s
    n += 0.0  # -0.0 -> 0.0: a negative value that rounds to zero prints unsigned
    if over is None:
        return n.tolist(), {i: decimal_pair(int(p[i]), int(q[i]), int(d[i]), digits) for i in near}
    return n.tolist(), {i: decimal_ratio((int(p[i]), int(q[i]), int(d[i])), tuple(int(c[i]) for c in over), digits)
                        for i in near}


def _quotient(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """x / y = x * conj(y) / norm(y) in integers, as (p, q, d) with d > 0, for x, y given as (p, q, d)."""
    xp, xq, xd = x
    yp, yq, yd = y
    norm = yp * yp - 2 * yq * yq
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt(2))")
    if norm < 0:
        yd, norm = -yd, -norm
    return (xp * yp - 2 * xq * yq) * yd, (xq * yp - xp * yq) * yd, xd * norm


def decimal_ratio(x: tuple[int, int, int], y: tuple[int, int, int], digits: int) -> str:
    """x / y rounded like ``decimal_pair``, for x, y given as (p, q, d): (p + q*sqrt(2)) / d."""
    return decimal_pair(*_quotient(x, y), digits)


def _triple(x: object) -> tuple[int, int, int] | None:
    """The (p, q, d) of a QuadValue, int or Fraction (a rational n/d is (n, 0, d)); None otherwise."""
    if isinstance(x, QuadValue):
        return x._pqd
    return (x.numerator, 0, x.denominator) if isinstance(x, (int, Fraction)) else None


@total_ordering
class QuadValue:
    """A number a + b*sqrt(2) = (p + q*sqrt(2)) / d, held as the integer triple (p, q, d).

    The triple is in lowest terms with d > 0, one per value since sqrt(2) is
    irrational; the Fractions ``a`` and ``b`` are built only when read.
    """

    __slots__ = ("_pqd",)

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        a, b = _as_fraction(a), _as_fraction(b)
        d = lcm(a.denominator, b.denominator)
        object.__setattr__(self, "_pqd", (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadValue is immutable")

    @classmethod
    def from_pair(cls, p: int, q: int, d: int) -> QuadValue:
        """(p + q*sqrt(2)) / d for integers p, q, d != 0 (numpy ints too); the inverse of :meth:`pair`."""
        p, q, d = index(p), index(q), index(d)
        if d == 0:
            raise ZeroDivisionError("zero denominator in Q(sqrt(2))")
        g = gcd(p, q, d) if d > 0 else -gcd(p, q, d)
        v = object.__new__(cls)
        object.__setattr__(v, "_pqd", (p // g, q // g, d // g))
        return v

    def pair(self) -> tuple[int, int, int]:
        """(p, q, d) with self == (p + q*sqrt(2)) / d, in lowest terms with d > 0."""
        return self._pqd

    a = property(lambda self: Fraction(self._pqd[0], self._pqd[2]), doc="The rational part p/d.")
    b = property(lambda self: Fraction(self._pqd[1], self._pqd[2]), doc="The coefficient q/d of sqrt(2).")

    def conjugate(self) -> QuadValue:
        return QuadValue.from_pair(self._pqd[0], -self._pqd[1], self._pqd[2])

    # -- field arithmetic ----------------------------------------------------

    def _sum(self, other: object, sign: int) -> QuadValue:
        """self + sign * other, or NotImplemented for an operand with no triple."""
        y = _triple(other)
        if y is None:
            return NotImplemented
        (p, q, d), (r, s, e) = self._pqd, y
        return QuadValue.from_pair(p * e + sign * r * d, q * e + sign * s * d, d * e)

    def __add__(self, other: QuadValue | Rational) -> QuadValue:
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other: QuadValue | Rational) -> QuadValue:
        return self._sum(other, -1)

    def __rsub__(self, other: Rational) -> QuadValue:
        return (-self)._sum(other, 1)

    def __neg__(self) -> QuadValue:
        return QuadValue.from_pair(-self._pqd[0], -self._pqd[1], self._pqd[2])

    def __mul__(self, other: QuadValue | Rational) -> QuadValue:
        y = _triple(other)
        if y is None:
            return NotImplemented
        (p, q, d), (r, s, e) = self._pqd, y
        return QuadValue.from_pair(p * r + 2 * q * s, p * s + q * r, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other: QuadValue | Rational) -> QuadValue:
        y = _triple(other)
        return NotImplemented if y is None else QuadValue.from_pair(*_quotient(self._pqd, y))

    def __rtruediv__(self, other: Rational) -> QuadValue:
        x = _triple(other)
        return NotImplemented if x is None else QuadValue.from_pair(*_quotient(x, self._pqd))

    def __pow__(self, n: int) -> QuadValue:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / self ** (-n)
        out, base = QuadValue(1, 0), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self) -> QuadValue:
        return -self if self.sign() < 0 else self

    # -- exact order ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign, computed without floating point."""
        return sign_pair(self._pqd[0], self._pqd[1])

    def compare(self, other: QuadValue | Rational) -> int:
        """-1, 0 or +1 according to the exact order of self vs other."""
        return (self - other).sign()

    def __eq__(self, other: object) -> bool:
        y = _triple(other)
        return NotImplemented if y is None else self._pqd == y

    def __lt__(self, other: QuadValue | Rational) -> bool:
        return NotImplemented if _triple(other) is None else self.compare(other) < 0

    def __hash__(self) -> int:  # a rational value hashes as its Fraction, as == compares it
        return hash(Fraction(self._pqd[0], self._pqd[2]) if self._pqd[1] == 0 else self._pqd)

    def __bool__(self) -> bool:
        return bool(self._pqd[0] or self._pqd[1])

    # -- output --------------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT2_F

    def floor(self) -> int:
        """Exact floor, via integer square roots only."""
        p, q, d = self._pqd
        return (p + _floor_sqrt2(q)) // d

    def decimal(self, digits: int) -> str:
        """Correctly rounded, half-to-even decimal with `digits` fractional digits."""
        return decimal_pair(*self._pqd, digits)

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        text = f"{abs(b)}*sqrt(2)"
        if a == 0:
            return text if b > 0 else f"-{text}"
        return f"{a} {'+' if b > 0 else '-'} {text}"

    def __repr__(self) -> str:
        return f"QuadValue({self.a!r}, {self.b!r})"


SQRT2 = QuadValue(0, 1)


def pow2_half(e: int) -> QuadValue:
    """2**(e/2) as an exact QuadValue, for any integer e.

    Even e gives a rational power of two; odd e carries one factor sqrt(2):
    2**(e/2) = 2**((e-1)/2) * sqrt(2).
    """
    if e % 2 == 0:
        return QuadValue(Fraction(2) ** (e // 2), 0)
    return QuadValue(0, Fraction(2) ** ((e - 1) // 2))


@total_ordering
class Dyadic:
    """A dyadic rational j / 2**N, normalized so j is odd or zero."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0) -> None:
        if exp < 0:
            raise ValueError("exponent must be >= 0")
        shift = min(exp, (num & -num).bit_length() - 1) if num else exp  # the factors of two that cancel
        num, exp = num >> shift, exp - shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, x: Rational) -> Dyadic:
        x = _as_fraction(x)
        den = x.denominator
        if den & (den - 1):
            raise ValueError(f"{x} is not a dyadic rational")
        return cls(x.numerator, den.bit_length() - 1)

    @classmethod
    def coerce(cls, t: Dyadic | Rational) -> Dyadic:
        return t if isinstance(t, Dyadic) else cls.from_fraction(t)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def numerator_at(self, level: int) -> int:
        """Numerator of this point written over denominator 2**level."""
        if level < self.exp:
            raise ValueError(f"{self} does not lie on the 2**-{level} grid")
        return self.num << (level - self.exp)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Dyadic):
            return self.num == other.num and self.exp == other.exp
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other: Dyadic | Rational) -> bool:
        if isinstance(other, Dyadic):
            other = other.as_fraction()
        return self.as_fraction() < other

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"
