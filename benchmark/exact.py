"""Closed forms in Q(sqrt(2)) that the benchmark checks outputs against.

A value is a pair ``(a, b)`` of Fractions meaning ``a + b*sqrt(2)``.  This
module does not import the program: every closed form is written out
here from its definition, so a check is never the program compared with
itself.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

Quad = tuple[Fraction, Fraction]

ZERO: Quad = (Fraction(0), Fraction(0))


def sign(x: Quad) -> int:
    """Exact sign of a + b*sqrt(2)."""
    a, b = x
    d = lcm(a.denominator, b.denominator)
    p, q = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    if p >= 0 and q >= 0:
        return 0 if p == q == 0 else 1
    if p <= 0 and q <= 0:
        return -1
    if p > 0:
        return 1 if p * p > 2 * q * q else -1
    return 1 if p * p < 2 * q * q else -1


def add(x: Quad, y: Quad) -> Quad:
    return x[0] + y[0], x[1] + y[1]


def sub(x: Quad, y: Quad) -> Quad:
    return x[0] - y[0], x[1] - y[1]


def mul(x: Quad, y: Quad) -> Quad:
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def scale(x: Quad, r: Fraction | int) -> Quad:
    return x[0] * r, x[1] * r


def div(x: Quad, y: Quad) -> Quad:
    norm = y[0] * y[0] - 2 * y[1] * y[1]
    return scale(mul(x, (y[0], -y[1])), 1 / norm)


def pow2_half(e: int) -> Quad:
    """2**(e/2)."""
    if e % 2 == 0:
        return Fraction(2) ** (e // 2), Fraction(0)
    return Fraction(0), Fraction(2) ** ((e - 1) // 2)


def jacobsthal(n: int) -> int:
    return ((1 << n) - (-1) ** n) // 3


def max_value(n: int) -> Quad:
    """M_n = (2 + sqrt2 + (-1)**(n+1) 2**-n (sqrt2 - 1))/3 - 2**(-n/2)."""
    eps = Fraction((-1) ** (n + 1), 1 << n)
    return sub(((2 - eps) / 3, (1 + eps) / 3), pow2_half(-n))


def nu(h: Fraction) -> int:
    """The n with 2**-(n+1) < h <= 2**-n."""
    n = 0
    while h * (1 << (n + 1)) <= 1:
        n += 1
    return n


def omega(h: Fraction) -> Quad:
    """(1 + 1/sqrt2) h 2**(nu/2) + (1/3)(sqrt8 + 2) 2**(-nu/2)."""
    n = nu(h)
    slope = scale(mul((Fraction(1), Fraction(1, 2)), pow2_half(n)), h)
    return add(slope, mul((Fraction(2, 3), Fraction(2, 3)), pow2_half(-n)))


_QUAD_RE = re.compile(
    r"^(?:(?P<a>-?\d+(?:/\d+)?)(?:(?P<op> [+-] )(?P<b>\d+(?:/\d+)?)\*sqrt\(2\))?"
    r"|(?P<b_only>-?\d+(?:/\d+)?)\*sqrt\(2\))$"
)


def parse(text: str) -> Quad:
    """Parse the program's printed form, e.g. ``7/16 + 5/16*sqrt(2)``."""
    m = _QUAD_RE.match(text)
    if m is None:
        raise ValueError(f"not a Q(sqrt2) value: {text!r}")
    if m["b_only"] is not None:
        return Fraction(0), Fraction(m["b_only"])
    b = Fraction(m["b"]) if m["b"] is not None else Fraction(0)
    return Fraction(m["a"]), -b if m["op"] == " - " else b


def decimal_ok(text: str, x: Quad) -> bool:
    """True iff ``text`` is x rounded to its own number of fractional digits."""
    digits = len(text.partition(".")[2])
    half = Fraction(1, 2 * 10**digits)
    err = sub(x, (Fraction(text), Fraction(0)))
    return sign(sub(err, (half, Fraction(0)))) <= 0 <= sign(add(err, (half, Fraction(0))))
