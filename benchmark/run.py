"""The takagiqv benchmark: one workload, one seed, exact output checks.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src/``.
One client sends requests in a closed loop: each request is a CLI argv list
run in-process through ``takagiqv.cli.main`` with stdout captured in memory,
or a library call.  The seed gives one round of requests; a run repeats the
round, at least MIN_ROUNDS times and then while another round fits in
``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured untraced; a request's
latency is the fastest of its repeats.  ``--trace 1`` runs the round three
times -- untraced and traced, alternating request by request, then traced
with ``TAKAGI_THREADS=1`` -- prints the per-layer metrics and writes the
spans to ``.bench_out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_TIMEOUT_S = 60
#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10
#: A run repeats the round at least this often, however long that takes.
MIN_ROUNDS = 3


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` on the path; exit with an error when the checkout holds no program."""
    if not (SRC / "takagiqv" / "__init__.py").is_file():
        sys.exit(f"error: no takagiqv package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    # The program keeps its default scan thread cap, whatever the caller's environment.
    os.environ.pop("TAKAGI_THREADS", None)


def run_round(round_: list, tracer=None) -> tuple[list[float], list[str]]:
    """Every request of the round, in order: latencies and problems found."""
    latencies, problems = [], []
    for req in round_:
        latency, problem = req.run(tracer)
        latencies.append(latency)
        if problem is not None:
            problems.append(f"{req.kind} {req.argv or ''}: {problem}")
    return latencies, problems


def setup_time(workload: str, seed: int) -> float:
    """A fresh process: start -> program imported and the first warm-up request done."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            proc.kill()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip()!r}, exit {proc.returncode}")
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy

    from takagiqv.gridscan import thread_cap

    return {
        "nproc": os.cpu_count(),
        "thread_cap": thread_cap(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args: argparse.Namespace, workload, round_: list) -> tuple[dict, int, list[str]]:
    """Repeat the round until --seconds are spent; each request's latency is its fastest repeat.

    On a shared 2-vCPU VM (the reference box in README.md) all code runs
    up to about 2x slower for stretches of a fraction of a second to
    several seconds, and the share of slow time drifts over minutes.
    Repeats of a request spread over the whole run make its fastest
    repeat the time it takes when nothing else is in the way, which is
    what a change to the program moves.  (A stretch with no fast moment
    at all can last a minute or more; a run inside one reads slow
    throughout.)  A set-up probe runs before the first round and after
    every round.
    """
    setups = [setup_time(workload.name, args.seed)]
    rounds: list[list[float]] = []
    problems: list[str] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        gc.collect()
        latencies, found = run_round(round_)
        rounds.append(latencies)
        problems += found
        setups.append(setup_time(workload.name, args.seed))
        now = perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - start + (now - began) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    repeats = list(zip(*rounds))
    best = [min(xs) for xs in repeats]
    tail_s, tail_pct = tail(best)
    n = len(best)
    print(f"{workload.name}, seed {args.seed}: {len(rounds)} rounds of {n} requests in "
          f"{perf_counter() - start:.1f} s; round request time "
          f"{', '.join(f'{sum(r):.2f}' for r in rounds)} s")
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for req, xs, low in zip(round_, repeats, best):
        by_kind.setdefault(req.kind, []).append((low, statistics.median(xs)))
    for kind, rows in by_kind.items():
        lows = [low for low, _ in rows]
        print(f"  {kind:16s} n={len(rows):3d}  fastest repeat: median {statistics.median(lows) * 1e3:8.2f} ms, "
              f"total {sum(lows):7.3f} s; median repeat / fastest {statistics.median(mid / low for low, mid in rows):.3f}")
    print(f"  latency_tail_ms is p{tail_pct:.1f} of n={n} requests ({TAIL_BEYOND} slower)")
    print(f"  setup_s samples: {', '.join(f'{x:.4f}' for x in setups)}")
    attempted = len(rounds) * n
    print(f"  failed_ratio = {len(problems) / attempted:.4f} (1): {len(problems)} of {attempted} requests")
    metrics = {
        "requests_per_s": metric(n / sum(best), "1/s"),
        "latency_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return metrics, attempted, problems


def summarize(tracer) -> tuple[dict, object]:
    """Self time per layer, traced wall and counters; the tracer starts empty again."""
    import tracing

    spans, counts = tracer.take()
    return {"self": tracing.layer_self(spans), "wall": tracing.wall(spans), "counts": counts}, spans


def per_layer(args: argparse.Namespace, workload, round_: list) -> tuple[dict, int, list[str]]:
    """One round traced, each request run untraced just before; then one traced round serially."""
    import tracing

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    untraced_wall, problems = 0.0, []
    try:
        # Untraced and traced runs alternate request by request, so that
        # drift in machine speed falls on both sides of trace.overhead_ratio alike.
        gc.collect()
        for req in round_:
            lat, found = run_round([req])
            untraced_wall += lat[0]
            problems += found
            problems += run_round([req], tracer)[1]
        default, spans = summarize(tracer)
        os.environ["TAKAGI_THREADS"] = "1"
        try:
            problems += run_round(round_, tracer)[1]
        finally:
            os.environ.pop("TAKAGI_THREADS", None)
        serial, serial_spans = summarize(tracer)
    finally:
        restore()
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload.name}.json"
    out.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "requests": len(round_),
        "default_threads": spans.as_dict(), "serial": serial_spans.as_dict(),
    }))

    s, c = default["self"], default["counts"]
    scanned = c["gridscan.scanned_points"]
    rows = {
        "schemes.row.calls": (c["schemes.row.calls"], "count"),
        "schemes.row.coeffs": (c["schemes.row.coeffs"], "count"),
        "schemes.row.self_s": (s["schemes.row"], "s"),
        "takagi.row.calls": (c["takagi.row.calls"], "count"),
        "takagi.row.cache_hit_ratio": (c["takagi.row.hits"] / max(1, c["takagi.row.calls"]), "1"),
        "takagi.grid_pairs.calls": (c["takagi.grid_pairs.calls"], "count"),
        "takagi.grid_points": (c["takagi.grid_points"], "count"),
        "takagi.grid_pairs.self_s": (s["takagi.grid_pairs"], "s"),
        "takagi.scalar.self_s": (s["takagi.scalar"], "s"),
        "gridscan.exact_argmax.calls": (c["gridscan.exact_argmax.calls"], "count"),
        "gridscan.exact_argmax.self_s": (s["gridscan.exact_argmax"], "s"),
        "gridscan.scanned_points": (scanned, "count"),
        "gridscan.screen_survivors": (c["gridscan.screen_survivors"], "count"),
        "gridscan.survivor_ratio": (c["gridscan.screen_survivors"] / max(1, scanned), "1"),
        "gridscan.ties": (c["gridscan.ties"], "count"),
        "quadvar.sums.self_s": (s["quadvar.sums"], "s"),
        "quadvar.profile.self_s": (s["quadvar.profile"], "s"),
        "follmer.self_s": (s["follmer"], "s"),
        "follmer.points": (c["follmer.points"], "count"),
        "modulus.sweep.self_s": (s["modulus.sweep"], "s"),
        "modulus.scan.calls": (c["modulus.scan.calls"], "count"),
        "modulus.omega.calls": (c["modulus.omega.calls"], "count"),
        "report.self_s": (s["report"], "s"),
        "qfield.decimal.calls": (c["qfield.decimal.calls"], "count"),
        "qfield.decimal.self_s": (s["qfield.decimal"], "s"),
        "cli.emit.self_s": (s["cli.emit"], "s"),
        "cli.emit.bytes": (c["cli.emit.bytes"], "bytes"),
        "trace.wall_s": (default["wall"], "s"),
        "trace.uncovered_s": (s[tracing.ROOT], "s"),
        "trace.overhead_ratio": (default["wall"] / untraced_wall, "1"),
        "gridscan.exact_argmax.self_s.serial": (serial["self"]["gridscan.exact_argmax"], "s"),
        "modulus.sweep.self_s.serial": (serial["self"]["modulus.sweep"], "s"),
        "trace.wall_s.serial": (serial["wall"], "s"),
    }
    print(f"{workload.name}, seed {args.seed}: traced one round of {len(round_)} requests, "
          f"spans in {out.relative_to(ROOT)}")
    wall = default["wall"]
    for layer, own in sorted(s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:24s} {own:9.4f} s self  {100 * own / wall:5.1f}% of traced wall")
    return {k: metric(v, unit) for k, (v, unit) in rows.items()}, 3 * len(round_), problems


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    warm, round_ = workload.generate(args.seed)
    _, warm_problems = run_round(warm)
    print("env:", json.dumps(environment()))
    if args.trace:
        metrics, attempted, problems = per_layer(args, workload, round_)
    else:
        metrics, attempted, problems = end_to_end(args, workload, round_)
    problems = warm_problems + problems
    attempted += len(warm)
    for p in problems[:10]:
        print("  FAILED", p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
