"""The benchmark's tracer patches takagiqv names from outside the package.

``benchmark/tracing.py`` looks up each entry point in ``LAYERS`` (and
``gridscan._float_candidates``) by name; a rename in ``src/`` would break
only its traced pass.  These tests read the file without importing it as a
package module, so no bytecode is written next to it, and check that every
name still resolves and that ``install`` and ``restore`` round-trip.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

import takagiqv
from takagiqv import cli, gridscan

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def _bindings():
    """Every attribute of a takagiqv module or class, by (owner, name)."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == takagiqv.__name__]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), name): value for o in owners for name, value in list(vars(o).items())}


class TestTracerNames:
    def test_every_layer_resolves(self, tracing):
        assert tracing.LAYERS
        for owner, name, layer, meter, pre in tracing.LAYERS:
            assert callable(vars(owner).get(name)), f"{owner.__name__}.{name} ({layer})"
        assert callable(vars(gridscan).get("_float_candidates"))
        assert any(owner is cli and name == "_emit" for owner, name, *_ in tracing.LAYERS)

    def test_install_and_restore_round_trip(self, tracing):
        before = _bindings()
        restore = tracing.install(tracing.Tracer())
        try:
            for owner, name, *_ in tracing.LAYERS:
                assert vars(owner)[name].__wrapped__ is before[id(owner), name]
        finally:
            restore()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())

    def test_traced_request_counts_emitted_bytes(self, tracing):
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                tracer.start_request()
                code = cli.main(["sample", "--grid", "3"])
                tracer.end_request()
        finally:
            restore()
        spans, counts = tracer.take()
        assert code == 0
        # sample streams its grid's blocks: no whole-grid copy is made
        assert {"request", "report", "cli.emit"} <= set(spans.name) and "takagi.grid_pairs" not in set(spans.name)
        assert counts["cli.emit.bytes"] == len(out.getvalue()) > 0
