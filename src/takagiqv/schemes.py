"""Coefficient schemes: rules (m, k) -> theta in {-1, +1}.

A scheme fixes one member of the function class studied here -- the sum
over all generations of theta(m,k) * e(m,k).  Builtin schemes cover the
named functions of interest (all_plus, the alternating families, the
half-split oscillation extremizer) plus seeded Bernoulli draws; arbitrary
finite tables can be loaded from text files.

A scheme defines ``constant(m)`` when generation m has one sign (all_plus,
alt_m, block:P, bernoulli at p = 0 or 1, and their negations), or else
``theta``, plus a vectorized ``thetas`` where it beats the per-index
default.  Every reader of coefficients asks ``constant`` or ``thetas``;
``row``, a whole generation, follows from them.

A Bernoulli coefficient (m, k) is decided by word i = 2**m - 1 + k of the
SplitMix64 stream seeded with ``seed mod 2**64`` (see ``splitmix64``): a
counter hash, so every coefficient is O(1) to reach and a whole generation
is one vectorized pass.

Scheme spec strings use a small grammar, ``name[:param[:param]]``:

    all_plus | alt_m | alt_mk | block:P | half_split | neg_half_split
    | bernoulli:P_PLUS:SEED | file:PATH
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import numpy as np

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class SchemeDepthError(LookupError):
    """A finite-depth scheme was queried beyond the data it holds."""


def _check_index(m: int, k: int) -> None:
    if m < 0:
        raise ValueError(f"generation m must be >= 0, got {m}")
    if not 0 <= k < (1 << m):
        raise ValueError(f"translate k={k} out of range [0, 2**{m})")


def parse_exact_fraction(text: str) -> Fraction:
    """Parse 'p/q' or 'p' exactly; decimal notation is rejected."""
    if not _FRACTION_RE.match(text):
        raise ValueError(f"not an exact fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


#: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio
#: increment and the two multipliers of its finalizer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def splitmix64(state: int, i: int) -> int:
    """Word i >= 0 of the SplitMix64 stream seeded with state in [0, 2**64).

    For i < 2**64 this is the generator's own i-th output,
    mix(state + (i+1)*gamma mod 2**64).  A larger i chains the finalizer
    over its 64-bit limbs, low limb first, so indices that agree mod 2**64
    do not repeat a word.
    """
    while True:
        state = _mix((state + ((i & _MASK) + 1) * _GAMMA) & _MASK)
        i >>= 64
        if not i:
            return state


class CoefficientScheme:
    """Base class of the rules (m, k) -> theta, 0 <= k < 2**m: subclasses define
    ``constant``, or ``theta`` (plus a vectorized ``thetas`` where faster)."""

    spec: str  # canonical spec string, set by subclasses

    def constant(self, m: int) -> int | None:
        """The coefficient that every k of generation m shares, or None."""
        return None

    def theta(self, m: int, k: int) -> int:
        _check_index(m, k)
        c = self.constant(m)
        if c is None:
            raise NotImplementedError
        return c

    def row(self, m: int) -> np.ndarray:
        """All coefficients of one generation as an int64 array of +/-1: ``thetas``
        at every k, fresh and owned by the caller, or for a constant generation a
        read-only zero-stride view of one value, which takes no memory.
        """
        if m < 0:
            raise ValueError(f"generation m must be >= 0, got {m}")
        c = self.constant(m)
        if c is not None:
            return np.broadcast_to(np.int64(c), (1 << m,))
        return self.thetas(m, np.arange(1 << m, dtype=np.int64))

    def thetas(self, m: int, k: np.ndarray) -> np.ndarray:
        """theta(m, k[i]) for an int64 array k of indices in [0, 2**m), as a fresh int64 array.

        Reads only the indices asked for, so a caller that needs a few
        coefficients of a deep generation skips building the whole row.
        """
        c = self.constant(m)
        if c is not None:
            return np.full(len(k), c, dtype=np.int64)
        return np.array([self.theta(m, int(j)) for j in k], dtype=np.int64)

    def negated(self) -> CoefficientScheme:
        return _Negated(self)

    def same_coefficients(self, other: CoefficientScheme) -> bool:
        """Whether other has this scheme's coefficients: the same class and spec."""
        return type(self) is type(other) and self.spec == other.spec

    def __repr__(self) -> str:
        return f"<scheme {self.spec}>"


class _Negated(CoefficientScheme):
    def __init__(self, inner: CoefficientScheme, spec: str | None = None) -> None:
        self.inner = inner
        self.spec = spec or f"neg({inner.spec})"

    def constant(self, m: int) -> int | None:
        c = self.inner.constant(m)
        return None if c is None else -c

    def theta(self, m: int, k: int) -> int:
        return -self.inner.theta(m, k)

    def thetas(self, m: int, k: np.ndarray) -> np.ndarray:
        t = self.inner.thetas(m, k)
        return np.negative(t, out=t)

    def negated(self) -> CoefficientScheme:
        return self.inner

    def same_coefficients(self, other: CoefficientScheme) -> bool:
        return type(self) is type(other) and self.inner.same_coefficients(other.inner)


class AllPlus(CoefficientScheme):
    """theta(m,k) = +1: the pointwise-maximal member of the class."""

    spec = "all_plus"

    def constant(self, m: int) -> int:
        return 1


class AlternatingM(CoefficientScheme):
    """theta(m,k) = (-1)**m: sign flips with each generation."""

    spec = "alt_m"

    def constant(self, m: int) -> int:
        return -1 if m % 2 else 1


class AlternatingMK(CoefficientScheme):
    """theta(m,k) = (-1)**(m+k)."""

    spec = "alt_mk"

    def theta(self, m: int, k: int) -> int:
        _check_index(m, k)
        return -1 if (m + k) % 2 else 1

    def thetas(self, m: int, k: np.ndarray) -> np.ndarray:
        s = -1 if m % 2 else 1
        return np.where(k & 1, -s, s)


class Block(CoefficientScheme):
    """theta(m,k) = (-1)**floor(m/p): sign flips every p generations."""

    def __init__(self, period: int) -> None:
        if period < 1:
            raise ValueError("block period must be >= 1")
        self.period = period
        self.spec = f"block:{period}"

    def constant(self, m: int) -> int:
        return -1 if (m // self.period) % 2 else 1


class HalfSplit(CoefficientScheme):
    """+1 on the left half of each generation, -1 on the right.

    Generation zero is +1; for m >= 1 the sign is +1 iff k < 2**(m-1).
    The resulting function attains the maximal oscillation of the class.
    """

    spec = "half_split"

    def theta(self, m: int, k: int) -> int:
        _check_index(m, k)
        if m == 0:
            return 1
        return 1 if k < (1 << (m - 1)) else -1

    def thetas(self, m: int, k: np.ndarray) -> np.ndarray:
        if m == 0:
            return np.ones(len(k), dtype=np.int64)
        return np.where(k < (1 << (m - 1)), 1, -1)


class NegHalfSplit(_Negated):
    """The sign-flipped half split (every theta negated)."""

    def __init__(self) -> None:
        super().__init__(HalfSplit(), "neg_half_split")


class Bernoulli(CoefficientScheme):
    """Deterministic i.i.d.-style draws: +1 with probability p_plus.

    Coefficient (m, k) is +1 iff u / 2**64 < p_plus, decided exactly in
    integers, where u = splitmix64(seed mod 2**64, 2**m - 1 + k) is the
    word of its breadth-first index.  Any (m, k) is O(1) to query, and the
    scheme is reproducible from the seed alone, independent of query order
    and platform.
    """

    def __init__(self, p_plus: Fraction, seed: int) -> None:
        if not 0 <= p_plus <= 1:
            raise ValueError("p_plus must lie in [0, 1]")
        if not -(1 << 63) <= seed < 1 << 63:
            raise ValueError(f"bernoulli seed must lie in [-2**63, 2**63), got {seed}")
        self.p_plus = Fraction(p_plus)
        self.seed = seed
        self.spec = f"bernoulli:{p_plus}:{seed}"
        self._state = seed & _MASK
        # u * den < num * 2**64, the test for +1, as u < ceil(num * 2**64 / den)
        self._bound = -(-(self.p_plus.numerator << 64) // self.p_plus.denominator)

    def theta(self, m: int, k: int) -> int:
        _check_index(m, k)
        return 1 if splitmix64(self._state, (1 << m) - 1 + k) < self._bound else -1

    def constant(self, m: int) -> int | None:
        if self._bound > _MASK:  # p_plus = 1: every word is below the bound
            return 1
        return -1 if self._bound == 0 else None

    def thetas(self, m: int, k: np.ndarray) -> np.ndarray:
        """The coefficients at k, computed in the buffer of their uint64
        counters z = i + 1 < 2**64 (i the breadth-first index).

        splitmix64 at i: state + (i+1)*gamma, then the finalizer, all mod 2**64.
        """
        # the base thetas: one sign at p = 0 or 1, or the scalar theta for counters
        # past 2**64, which chain the finalizer (see splitmix64)
        if m >= 64 or self.constant(m) is not None:
            return super().thetas(m, k)
        z = k.astype(np.uint64)
        z += np.uint64(1 << m)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        z ^= z >> np.uint64(31)
        out = z.view(np.int64)  # the +/-1 values reuse the buffer of the words
        np.copyto(out, z < np.uint64(self._bound))
        out *= 2
        out -= 1
        return out


class Explicit(CoefficientScheme):
    """A finite table of coefficients for generations m < depth."""

    def __init__(self, table: dict[tuple[int, int], int], depth: int,
                 spec: str = "explicit") -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        for m in range(depth):
            for k in range(1 << m):
                s = table.get((m, k))
                if s not in (1, -1):
                    raise ValueError(f"table incomplete or invalid at (m={m}, k={k})")
        self.table = dict(table)
        self.depth = depth
        self.spec = spec

    def theta(self, m: int, k: int) -> int:
        _check_index(m, k)
        if m >= self.depth:
            raise SchemeDepthError(
                f"generation {m} beyond explicit depth {self.depth}"
            )
        return self.table[(m, k)]

    def same_coefficients(self, other: CoefficientScheme) -> bool:
        # tables may share a spec (the default "explicit"), so compare the tables
        return isinstance(other, Explicit) and (self.depth, self.table) == (other.depth, other.table)

    @classmethod
    def load(cls, path: str | Path) -> Explicit:
        """Read the text format: header ``depth D``, then lines ``m k s``.

        Blank lines and lines whose first non-blank character is ``#`` are
        skipped; each (m, k) with m < D must appear exactly once.
        """
        lines = (ln.strip() for ln in Path(path).read_text().split("\n"))
        body = [ln for ln in lines if ln and not ln.startswith("#")]
        header = body[0].split() if body else []
        if len(header) != 2 or header[0] != "depth":
            raise ValueError("explicit scheme file must start with 'depth D'")
        depth = int(header[1])
        table: dict[tuple[int, int], int] = {}
        for ln in body[1:]:
            fields = ln.split()
            if len(fields) != 3 or fields[2] not in ("+1", "-1", "1"):
                raise ValueError(f"bad scheme file line: {ln!r}")
            m, k = int(fields[0]), int(fields[1])
            if not (0 <= m < depth and 0 <= k < 1 << m):
                raise ValueError(f"scheme file line outside depth {depth}: {ln!r}")
            if (m, k) in table:
                raise ValueError(f"duplicate scheme file entry (m={m}, k={k})")
            table[(m, k)] = 1 if fields[2] in ("+1", "1") else -1
        return cls(table, depth, spec=f"file:{path}")

    def save(self, path: str | Path) -> None:
        rows = [f"depth {self.depth}"]
        for m in range(self.depth):
            for k in range(1 << m):
                s = self.table[(m, k)]
                rows.append(f"{m} {k} {'+1' if s > 0 else '-1'}")
        Path(path).write_text("\n".join(rows) + "\n")


#: Deterministic named schemes, in a stable order (used by scan suites).
BUILTIN_NAMES = ("all_plus", "alt_m", "alt_mk", "block:5", "half_split", "neg_half_split")


def parse_scheme(spec: str) -> CoefficientScheme:
    """Build a scheme from its spec string (see module docstring)."""
    name, _, rest = spec.partition(":")
    if name == "file":
        if not rest:
            raise ValueError("file scheme needs a path: file:PATH")
        return Explicit.load(rest)
    params = rest.split(":") if rest else []
    if name == "all_plus" and not params:
        return AllPlus()
    if name == "alt_m" and not params:
        return AlternatingM()
    if name == "alt_mk" and not params:
        return AlternatingMK()
    if name == "block" and len(params) == 1:
        return Block(int(params[0]))
    if name == "half_split" and not params:
        return HalfSplit()
    if name == "neg_half_split" and not params:
        return NegHalfSplit()
    if name == "bernoulli" and len(params) == 2:
        return Bernoulli(parse_exact_fraction(params[0]), int(params[1]))
    raise ValueError(f"unrecognized scheme spec: {spec!r}")
