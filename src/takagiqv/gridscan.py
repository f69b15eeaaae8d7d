"""Exact argmax/argmin over arrays of Q(sqrt(2)) values stored as integer pairs.

Scans run in two stages: a float pass in one float64 buffer per chunk
narrows the grid to a small candidate set using a rigorous error bound,
then exact integer comparisons decide the winner and collect every tie.
Grids of more than one 2**18-point chunk are screened per chunk on a
thread pool capped by TAKAGI_THREADS, the package's only pool (numpy
releases the GIL there); the exact merge makes the result independent of
chunking and thread timing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .qfield import sign_pair

_SQRT2_F = 1.4142135623730951
_CHUNK = 1 << 18


def thread_cap() -> int:
    """Scan parallelism: TAKAGI_THREADS if set, else min(4, cpu count)."""
    env = os.environ.get("TAKAGI_THREADS")
    if env is not None:
        n = int(env)
        if n < 1:
            raise ValueError("TAKAGI_THREADS must be >= 1")
        return n
    return min(4, os.cpu_count() or 1)


def _float_candidates(p: np.ndarray, q: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Indices in [lo, hi) that could attain the exact maximum of p + q*sqrt2."""
    ps, qs = p[lo:hi], q[lo:hi]
    f = qs.astype(np.float64)
    f *= _SQRT2_F
    f += ps
    # |float - exact| <= (|p| + 2|q|) * 2**-50, generously
    p_abs = max(-int(ps.min()), int(ps.max()))
    q_abs = max(-int(qs.min()), int(qs.max()))
    err = (p_abs + 2.0 * q_abs + 1.0) * 2.0 ** -50
    return np.flatnonzero(f >= f.max() - 4.0 * err) + lo


def exact_argmax(p: np.ndarray, q: np.ndarray) -> tuple[int, int, list[int]]:
    """Exact maximum of p[i] + q[i]*sqrt(2): (p*, q*, sorted tie indices)."""
    n = len(p)
    ranges = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    workers = min(thread_cap(), len(ranges))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda r: _float_candidates(p, q, *r), ranges))
    else:
        parts = [_float_candidates(p, q, *r) for r in ranges]
    cand = np.concatenate(parts)

    best_i = int(cand[0])
    ties = [best_i]
    for i in cand[1:]:
        i = int(i)
        c = sign_pair(int(p[i]) - int(p[best_i]), int(q[i]) - int(q[best_i]))
        if c > 0:
            best_i = i
            ties = [i]
        elif c == 0:
            ties.append(i)
    return int(p[best_i]), int(q[best_i]), sorted(ties)


def exact_argmin(p: np.ndarray, q: np.ndarray) -> tuple[int, int, list[int]]:
    pm, qm, ties = exact_argmax(-p, -q)
    return -pm, -qm, ties


def exact_absmax(p: np.ndarray, q: np.ndarray) -> tuple[int, int, list[int]]:
    """Exact maximum of |p[i] + q[i]*sqrt(2)|, ties across both signs."""
    hi_p, hi_q, hi_ties = exact_argmax(p, q)
    lo_p, lo_q, lo_ties = exact_argmin(p, q)
    c = sign_pair(hi_p + lo_p, hi_q + lo_q)  # |max| vs |min|
    if c > 0:
        return hi_p, hi_q, hi_ties
    if c < 0:
        return -lo_p, -lo_q, lo_ties
    return hi_p, hi_q, sorted(set(hi_ties) | set(lo_ties))
