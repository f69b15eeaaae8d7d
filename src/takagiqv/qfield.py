"""Exact arithmetic over the quadratic field Q(sqrt(2)).

Every number produced by the wedge-basis machinery in this package --
wedge heights 2**(-m/2), values on dyadic grids, moduli of continuity,
quadratic-variation sums -- lies in the field {a + b*sqrt(2) : a, b rational}.
:class:`QuadValue` stores the two rational components exactly and supports
field arithmetic, a total order decided without floating point, and a
correctly rounded decimal printer.  :class:`Dyadic` is the companion type
for grid points j / 2**N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm
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


def decimal_column(p: np.ndarray, q: np.ndarray, bits: int, digits: int) -> list[str]:
    """decimal_pair(p[i], q[i], 2**bits, digits) for every i, for int64 arrays p and q.

    A float screen with an exact fallback (Ziv's strategy for correctly
    rounded results, ACM TOMS 17(3), 1991), bounded like the screen of
    ``gridscan._float_candidates``.  x = value * 10**digits is computed in
    float64, and tol = (|p| + 2|q|) * 10**digits / 2**bits * 2**-50 is at
    least twice its rounding error, (3|p| + 5*sqrt(2)*|q|) * 2**-53 in the
    same units.  A row whose x lies farther than tol from every rounding
    half rounds to n = rint(x), and n prints exactly as ``%.{digits}f`` of
    n / 10**digits, since |n| < 2**52.  decimal_pair decides the other
    rows: exact ties (q == 0 at a dyadic half), near ties, and every
    |x| >= 2**49, where tol reaches 1/2.
    """
    if not 1 <= digits <= 22:
        raise ValueError("digits must be in [1, 22]")
    s = float(10 ** digits)  # exact up to 10**22
    scale = s * 2.0 ** -bits
    x = q.astype(np.float64)
    tol = np.abs(x)
    tol *= 2.0
    x *= _SQRT2_F
    fp = p.astype(np.float64)
    x += fp
    x *= scale
    tol += np.abs(fp, out=fp)
    tol *= scale * 2.0 ** -50
    n = np.rint(x)
    x -= n  # exact: x and its nearest integer are within a factor of two (or n == 0)
    near = np.abs(x, out=x) >= np.subtract(0.5, tol, out=tol)
    n /= s
    n += 0.0  # -0.0 -> 0.0: a negative value that rounds to zero prints unsigned
    text = list(map(f"%.{digits}f".__mod__, n.tolist()))
    den = 1 << bits
    for i in np.flatnonzero(near).tolist():
        text[i] = decimal_pair(int(p[i]), int(q[i]), den, digits)
    return text


def decimal_ratio(x: tuple[int, int, int], y: tuple[int, int, int], digits: int) -> str:
    """x / y rounded like ``decimal_pair``, for x, y given as (p, q, d): (p + q*sqrt(2)) / d.

    x / y = x * conj(y) / norm(y), all in integers; a negative norm moves
    its sign into the numerator pair.
    """
    xp, xq, xd = x
    yp, yq, yd = y
    norm = yp * yp - 2 * yq * yq
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt(2))")
    if norm < 0:
        yd, norm = -yd, -norm
    return decimal_pair((xp * yp - 2 * xq * yq) * yd, (xq * yp - xp * yq) * yd, xd * norm, digits)


@total_ordering
class QuadValue:
    """A number a + b*sqrt(2) with exact rational components."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadValue is immutable")

    def conjugate(self) -> QuadValue:
        return QuadValue(self.a, -self.b)

    # -- field arithmetic ----------------------------------------------------

    def __add__(self, other: QuadValue | Rational) -> QuadValue:
        if isinstance(other, QuadValue):
            return QuadValue(self.a + other.a, self.b + other.b)
        if isinstance(other, (int, Fraction)):
            return QuadValue(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: QuadValue | Rational) -> QuadValue:
        return self + (-other if isinstance(other, QuadValue) else QuadValue(-_as_fraction(other), 0))

    def __rsub__(self, other: Rational) -> QuadValue:
        return (-self) + other

    def __neg__(self) -> QuadValue:
        return QuadValue(-self.a, -self.b)

    def __mul__(self, other: QuadValue | Rational) -> QuadValue:
        if isinstance(other, QuadValue):
            return QuadValue(
                self.a * other.a + 2 * self.b * other.b,
                self.a * other.b + self.b * other.a,
            )
        if isinstance(other, (int, Fraction)):
            return QuadValue(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: QuadValue | Rational) -> QuadValue:
        if isinstance(other, (int, Fraction)):
            other = QuadValue(other, 0)
        if not isinstance(other, QuadValue):
            return NotImplemented
        # 1/(a + b*sqrt(2)) = (a - b*sqrt(2)) / (a**2 - 2*b**2); the norm is
        # nonzero for any nonzero value because sqrt(2) is irrational.
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return self * other.conjugate() * QuadValue(Fraction(1, 1) / norm, 0)

    def __rtruediv__(self, other: Rational) -> QuadValue:
        return QuadValue(other, 0) / self

    def __pow__(self, n: int) -> QuadValue:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return QuadValue(1, 0) / self ** (-n)
        out = QuadValue(1, 0)
        base = self
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
        return sign_pair(self.a, self.b)

    def compare(self, other: QuadValue | Rational) -> int:
        """-1, 0 or +1 according to the exact order of self vs other."""
        if not isinstance(other, QuadValue):
            other = QuadValue(other, 0)
        return (self - other).sign()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadValue):
            # sqrt(2) irrational => representation is unique
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __lt__(self, other: QuadValue | Rational) -> bool:
        if isinstance(other, (QuadValue, int, Fraction)):
            return self.compare(other) < 0
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- output --------------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT2_F

    def pair(self) -> tuple[int, int, int]:
        """(p, q, d) with self == (p + q*sqrt(2)) / d and d > 0."""
        a, b = self.a, self.b
        d = lcm(a.denominator, b.denominator)
        return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d

    def floor(self) -> int:
        """Exact floor, via integer square roots only."""
        p, q, d = self.pair()
        return (p + _floor_sqrt2(q)) // d

    def decimal(self, digits: int) -> str:
        """Correctly rounded, half-to-even decimal with `digits` fractional digits."""
        return decimal_pair(*self.pair(), digits)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        b = f"{self.b}*sqrt(2)" if self.b > 0 else f"-{-self.b}*sqrt(2)"
        if self.a == 0:
            return b
        op = " + " if self.b > 0 else " - "
        return f"{self.a}{op}{b.lstrip('-')}"

    def __repr__(self) -> str:
        return f"QuadValue({self.a!r}, {self.b!r})"


SQRT2 = QuadValue(0, 1)
ZERO = QuadValue(0, 0)
ONE = QuadValue(1, 0)


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
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0 and exp > 0:
                num //= 2
                exp -= 1
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
