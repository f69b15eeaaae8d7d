"""Exact extrema over arrays of Q(sqrt(2)) values stored as integer pairs.

Scans run in two stages.  A float pass in one float64 buffer per chunk
narrows the grid to a small candidate set for the maximum and the minimum
together, using a rigorous error bound; then exact integer comparisons
over the candidates decide both winners and collect every tie.  Grids
streamed in blocks (``block_extrema``) are screened block by block and
only the candidates' pairs are kept, so no full-size array exists.  Full
arrays of more than one 2**18-point chunk are screened per chunk on a
thread pool capped by TAKAGI_THREADS, the package's only pool (numpy
releases the GIL there); the exact merge makes the result independent of
blocking, chunking and thread timing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from .qfield import sign_pair

_SQRT2_F = 1.4142135623730951
_CHUNK = 1 << 18

#: (p*, q*, sorted tie indices) of one exact extremum.
Extremum = tuple[int, int, list[int]]


def thread_cap() -> int:
    """Scan parallelism: TAKAGI_THREADS if set, else min(4, cpu count)."""
    env = os.environ.get("TAKAGI_THREADS")
    if env is not None:
        n = int(env)
        if n < 1:
            raise ValueError("TAKAGI_THREADS must be >= 1")
        return n
    return min(4, os.cpu_count() or 1)


def _float_candidates(
    p: np.ndarray, q: np.ndarray, lo: int, hi: int, buf: np.ndarray | None = None
) -> np.ndarray:
    """Indices in [lo, hi) that could attain the exact maximum or minimum of p + q*sqrt2.

    The float values go into buf, a float64 array of length >= hi - lo, if given.
    """
    ps, qs = p[lo:hi], q[lo:hi]
    f = np.multiply(qs, _SQRT2_F, out=None if buf is None else buf[: hi - lo])
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


def exact_extrema(p: np.ndarray, q: np.ndarray) -> tuple[Extremum, Extremum]:
    """Exact maximum and minimum of p[i] + q[i]*sqrt(2), from one screen."""
    n = len(p)
    ranges = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    workers = min(thread_cap(), len(ranges))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda r: _float_candidates(p, q, *r), ranges))
    else:
        parts = [_float_candidates(p, q, *r) for r in ranges]
    cand = np.concatenate(parts)
    return _merge(cand.tolist(), p[cand].tolist(), q[cand].tolist())


def block_extrema(blocks: Iterable[tuple[int, np.ndarray, np.ndarray]]) -> tuple[Extremum, Extremum]:
    """``exact_extrema`` over a grid streamed as (offset, p, q) blocks sharing endpoints."""
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


def exact_argmax(p: np.ndarray, q: np.ndarray) -> Extremum:
    """Exact maximum of p[i] + q[i]*sqrt(2): (p*, q*, sorted tie indices)."""
    return exact_extrema(p, q)[0]


def exact_argmin(p: np.ndarray, q: np.ndarray) -> Extremum:
    return exact_extrema(p, q)[1]


def exact_absmax(p: np.ndarray, q: np.ndarray) -> Extremum:
    """Exact maximum of |p[i] + q[i]*sqrt(2)|, ties across both signs."""
    (hi_p, hi_q, hi_ties), (lo_p, lo_q, lo_ties) = exact_extrema(p, q)
    c = sign_pair(hi_p + lo_p, hi_q + lo_q)  # |max| vs |min|
    if c > 0:
        return hi_p, hi_q, hi_ties
    if c < 0:
        return -lo_p, -lo_q, lo_ties
    return hi_p, hi_q, sorted(set(hi_ties) | set(lo_ties))
