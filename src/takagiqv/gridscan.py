"""Exact extrema over arrays of Q(sqrt(2)) values stored as integer pairs.

Scans run in two stages.  A float pass in one float64 buffer per block
narrows the values to a small candidate set for the maximum and the
minimum together, using a rigorous error bound; then exact integer
comparisons over the candidates decide both winners and collect every
tie.  Every scan is ``block_extrema`` over blocks that share endpoints:
the blocks a grid streams in, or views of a full array in the same
layout (``takagi.pair_blocks``).  Only the candidates' pairs are kept, the
exact merge makes the result independent of the blocking, and scans run
on the calling thread.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .qfield import _SQRT2_F, sign_pair
from .takagi import pair_blocks


#: (p*, q*, sorted tie indices) of one exact extremum.
Extremum = tuple[int, int, list[int]]


def thread_cap() -> int:
    """Scans run on the calling thread."""
    return 1


def _float_candidates(p: np.ndarray, q: np.ndarray, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
    """Indices in [lo, hi) that could attain the exact maximum or minimum of p + q*sqrt2.

    The float values go into buf, a float64 array of length >= hi - lo.
    """
    ps, qs = p[lo:hi], q[lo:hi]
    f = np.multiply(qs, _SQRT2_F, out=buf[: hi - lo])
    f += ps
    # |float - exact| <= (|p| + 2|q|) * 2**-50, generously
    p_abs = max(-int(ps.min()), int(ps.max()))
    q_abs = max(-int(qs.min()), int(qs.max()))
    tol = 4.0 * (p_abs + 2.0 * q_abs + 1.0) * 2.0 ** -50
    keep = f >= f.max() - tol
    keep |= f <= f.min() + tol
    return np.flatnonzero(keep) + lo


def _merge(idx: list[int], cp: list[int], cq: list[int]) -> tuple[Extremum, Extremum]:
    """Exact maximum and minimum over candidate values cp[i] + cq[i]*sqrt2 at indices idx."""
    hi = lo = 0
    hi_ties, lo_ties = [idx[0]], [idx[0]]
    for i in range(1, len(idx)):
        c = sign_pair(cp[i] - cp[hi], cq[i] - cq[hi])
        if c > 0:
            hi, hi_ties = i, [idx[i]]
        elif c == 0:
            hi_ties.append(idx[i])
        c = sign_pair(cp[i] - cp[lo], cq[i] - cq[lo])
        if c < 0:
            lo, lo_ties = i, [idx[i]]
        elif c == 0:
            lo_ties.append(idx[i])
    return (cp[hi], cq[hi], sorted(hi_ties)), (cp[lo], cq[lo], sorted(lo_ties))


def block_extrema(blocks: Iterable[tuple[int, np.ndarray, np.ndarray]]) -> tuple[Extremum, Extremum]:
    """Exact maximum and minimum over (offset, p, q) blocks that share endpoints, first block longest."""
    idx: list[int] = []
    cp: list[int] = []
    cq: list[int] = []
    buf = None
    for off, p, q in blocks:
        if buf is None:
            buf = np.empty(len(p))
        first = 1 if off else 0  # the shared endpoint closed the previous block
        local = _float_candidates(p, q, first, len(p), buf)
        idx += (local + off).tolist()
        cp += p[local].tolist()
        cq += q[local].tolist()
    return _merge(idx, cp, cq)


def exact_extrema(p: np.ndarray, q: np.ndarray) -> tuple[Extremum, Extremum]:
    """Exact maximum and minimum of p[i] + q[i]*sqrt(2), from one screen."""
    return block_extrema(pair_blocks(p, q))


def exact_argmax(p: np.ndarray, q: np.ndarray) -> Extremum:
    """Exact maximum of p[i] + q[i]*sqrt(2): (p*, q*, sorted tie indices)."""
    return exact_extrema(p, q)[0]


def exact_argmin(p: np.ndarray, q: np.ndarray) -> Extremum:
    return exact_extrema(p, q)[1]
