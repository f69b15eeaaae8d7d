"""Spans around the calls into each layer of takagiqv, installed from outside.

``install`` replaces the layer entry points named in ``LAYERS`` -- module
functions at every module that imported them, and methods on their
classes -- with wrappers that record a span (name, start, end, parent,
thread) and a few counters while a request is being traced.  ``restore``
puts the originals back.  Nothing inside ``src/`` is changed.

Spans stay in memory; the caller writes them out once at the end.  A span
opened in a worker thread with no open span of its own takes the main
thread's innermost open span as its parent: the pools in gridscan and
modulus are always started from inside a traced call on the main thread.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable

import takagiqv
from takagiqv import cli, extrema, follmer, gridscan, modulus, qfield, quadvar, schemes, takagi

ROOT = "request"


class Spans:
    """Span columns.  Plain lists of numbers and strings add no objects for the
    garbage collector to scan, so a long trace does not slow the program."""

    FIELDS = ("name", "start", "end", "parent", "thread")

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.thread: list[int] = []

    def as_dict(self) -> dict[str, list]:
        return {f: getattr(self, f) for f in self.FIELDS}


class Tracer:
    """In-memory spans and counters; records only between start and end of a request."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: Counter[str] = Counter()
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        sp = self.spans
        with self._lock:
            i = len(sp.name)
            sp.name.append(name)
            sp.parent.append(parent)
            sp.thread.append(threading.get_ident())
            sp.end.append(0.0)
            sp.start.append(perf_counter())
        stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans.end[i] = perf_counter()
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def parent_name(self, i: int) -> str:
        parent = self.spans.parent[i]
        return self.spans.name[parent] if parent >= 0 else ""

    def start_request(self) -> None:
        self.active = True
        self.open(ROOT)

    def end_request(self) -> None:
        self.close(self._stack()[-1])
        self.active = False

    def take(self) -> tuple[Spans, Counter[str]]:
        """Hand over what was recorded and start empty."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = Spans(), Counter()
        return spans, counts


# -- counters at the layer boundaries --------------------------------------------
# Each meter runs after the span closes, with the call's arguments and result.


def _scheme_row(tr: Tracer, span: int, args: tuple, result: Any, pre: Any) -> None:
    if tr.parent_name(span) != "schemes.row":  # NegHalfSplit.row calls HalfSplit.row
        tr.count("schemes.row.calls")
        tr.count("schemes.row.coeffs", len(result))


def _takagi_row(tr: Tracer, span: int, args: tuple, result: Any, hit: bool) -> None:
    tr.count("takagi.row.calls")
    tr.count("takagi.row.hits", hit)


def _grid_pairs(tr: Tracer, span: int, args: tuple, result: Any, pre: Any) -> None:
    tr.count("takagi.grid_pairs.calls")
    tr.count("takagi.grid_points", len(result[0]))


def _exact_argmax(tr: Tracer, span: int, args: tuple, result: Any, pre: Any) -> None:
    tr.count("gridscan.exact_argmax.calls")
    tr.count("gridscan.scanned_points", len(args[0]))
    tr.count("gridscan.ties", len(result[2]))


def _riemann(tr: Tracer, span: int, args: tuple, result: Any, pre: Any) -> None:
    level, t = args[2], args[3]
    t = t.as_fraction() if isinstance(t, qfield.Dyadic) else Fraction(t)
    tr.count("follmer.points", int(t * (1 << level)))


def _emit(tr: Tracer, span: int, args: tuple, result: Any, start: int) -> None:
    tr.count("cli.emit.bytes", sys.stdout.tell() - start)


def _calls(key: str) -> Callable[..., None]:
    return lambda tr, span, args, result, pre: tr.count(key)


_NONE: Callable[..., Any] = lambda *args: None

#: (owner, attribute, layer, meter, pre-call hook).  A function is patched on
#: every takagiqv module that holds it; a method on its class.
LAYERS: list[tuple[Any, str, str, Callable[..., None], Callable[..., Any]]] = [
    *[
        (cls, "row", "schemes.row", _scheme_row, _NONE)
        for cls in vars(schemes).values()
        if isinstance(cls, type) and issubclass(cls, schemes.CoefficientScheme) and "row" in vars(cls)
    ],
    (takagi.TakagiFunction, "row", "takagi.row", _takagi_row, lambda fn, m: m in fn._rows),
    (takagi.TakagiFunction, "grid_pairs", "takagi.grid_pairs", _grid_pairs, _NONE),
    (takagi.TakagiFunction, "at_dyadic", "takagi.scalar", _NONE, _NONE),
    (takagi.TakagiFunction, "approx", "takagi.scalar", _NONE, _NONE),
    (takagi, "thirds_value", "takagi.scalar", _NONE, _NONE),
    (gridscan, "exact_argmax", "gridscan.exact_argmax", _exact_argmax, _NONE),
    (quadvar, "qv_approx", "quadvar.sums", _NONE, _NONE),
    (quadvar, "cov_approx", "quadvar.sums", _NONE, _NONE),
    (quadvar, "qv_of_sum", "quadvar.sums", _NONE, _NONE),
    (quadvar, "qv_profile", "quadvar.profile", _NONE, _NONE),
    (quadvar, "counterexample_series", "quadvar.profile", _NONE, _NONE),
    (follmer, "follmer_sum", "follmer", _riemann, _NONE),
    (follmer, "time_sum", "follmer", _riemann, _NONE),
    (follmer, "ito_residual", "follmer", _NONE, _NONE),
    (modulus, "sweep_all_steps", "modulus.sweep", _NONE, _NONE),
    (modulus, "modulus_scan", "modulus.scan", _calls("modulus.scan.calls"), _NONE),
    (modulus, "omega", "modulus.omega", _calls("modulus.omega.calls"), _NONE),
    (extrema, "grid_extrema", "report", _NONE, _NONE),
    (modulus, "witness_ratios", "report", _NONE, _NONE),
    *[(cli, name, "report", _NONE, _NONE) for name in vars(cli) if name.startswith("cmd_")],
    (qfield.QuadValue, "decimal", "qfield.decimal", _calls("qfield.decimal.calls"), _NONE),
    (cli, "_emit", "cli.emit", _emit, lambda *args: sys.stdout.tell()),
]


def _wrap(tr: Tracer, fn: Callable, layer: str, meter: Callable, pre: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tr.active:
            return fn(*args, **kwargs)
        before = pre(*args)
        span = tr.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(span)
        meter(tr, span, args, result, before)
        return result

    return traced


def _count_survivors(tr: Tracer, fn: Callable) -> Callable:
    """The float screen runs per chunk on pool threads; count only, no span."""

    @functools.wraps(fn)
    def counted(*args: Any) -> Any:
        result = fn(*args)
        if tr.active:
            tr.count("gridscan.screen_survivors", len(result))
        return result

    return counted


def install(tr: Tracer) -> Callable[[], None]:
    """Patch every layer entry point to record into ``tr``; returns the undo."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == takagiqv.__name__]
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, new: Any) -> None:
        old = vars(owner)[name]
        owners = [owner] if isinstance(owner, type) else [m for m in modules if vars(m).get(name) is old]
        for o in owners:
            undo.append((o, name, old))
            setattr(o, name, new)

    for owner, name, layer, meter, pre in LAYERS:
        patch(owner, name, _wrap(tr, vars(owner)[name], layer, meter, pre))
    patch(gridscan, "_float_candidates", _count_survivors(tr, gridscan._float_candidates))

    def restore() -> None:
        for o, name, old in reversed(undo):
            setattr(o, name, old)

    return restore


# -- aggregation -------------------------------------------------------------------


def self_times(sp: Spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children on pool threads can overlap one another, so their union is
    taken, clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, parent in enumerate(sp.parent):
        if parent >= 0:
            children[parent].append((sp.start[i], sp.end[i]))
    out = []
    for i, (start, end) in enumerate(zip(sp.start, sp.end)):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def layer_self(sp: Spans) -> dict[str, float]:
    """Total self time per layer; the ``request`` layer is time in no layer span."""
    totals: dict[str, float] = defaultdict(float)
    for name, own in zip(sp.name, self_times(sp)):
        totals[name] += own
    return totals


def wall(sp: Spans) -> float:
    return sum(e - s for s, e, p in zip(sp.start, sp.end, sp.parent) if p < 0)
