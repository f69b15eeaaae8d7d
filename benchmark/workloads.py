"""Seeded request mixes and the exact checks on their outputs.

A workload generates one round of requests: six cycles, each a fixed
list of request slots -- the request type and its grid level never
change -- while the seed chooses everything else: which named scheme
fills which slot, bernoulli probabilities and seeds, strides, steps,
points and polynomial coefficients.  The named schemes rotate through
the slots, so a round gives every slot every named scheme once and two
seeds produce the same mix of work in a different arrangement.  A run
repeats the round.

Every request carries a check built from closed forms that hold for any
scheme or draw (see ``exact``), or from a second evaluation path of the
program (the scalar ``at_dyadic``).  No check compares against stored
program output; a repeat of a request must print what its first run
printed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import exact
from exact import Quad

import takagiqv as tq
from takagiqv import RationalPolynomial, TakagiFunction, cli, parse_scheme

NAMED = ("all_plus", "alt_m", "alt_mk", "block:5", "half_split", "neg_half_split")
P_PLUS = ("1/2", "1/3", "2/3", "1/4", "3/4", "2/5")
ONE = Fraction(1)


@dataclass
class Request:
    """One closed-loop request: a CLI argv list or a library call."""

    kind: str
    check: Callable[[Any], str | None]
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    #: The first checked output of a CLI request; every repeat must print it again.
    printed: str | None = None

    def run(self, tracer: Any = None) -> tuple[float, str | None]:
        """Latency in seconds and the problem found, or None if the output is right.

        Only the call itself is timed; output capture is set up before and
        the check runs after, both with tracing off.  A CLI request is
        checked in full once; a repeat must print the same bytes.
        """
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.start_request()
            start = time.perf_counter()
            try:
                result = self.call() if self.call is not None else cli.main(self.argv)
            except (Exception, SystemExit) as exc:  # a failed request, not a failed benchmark
                result = exc
            finally:
                latency = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_request()
        if isinstance(result, BaseException):
            return latency, f"raised {result!r}"
        if self.argv is not None:
            if result != 0:
                return latency, f"exit code {result}: {err.getvalue().strip()}"
            result = out.getvalue()
            if self.printed is not None:
                return latency, None if result == self.printed else "output differs from its first run"
        try:
            problem = self.check(result)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return latency, f"malformed output: {exc!r}"
        if problem is None and self.argv is not None:
            self.printed = result
        return latency, problem


# -- helpers -------------------------------------------------------------------


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _value(row: dict[str, str]) -> Quad:
    return (
        Fraction(int(row["value_a_num"]), int(row["value_a_den"])),
        Fraction(int(row["value_b_num"]), int(row["value_b_den"])),
    )


def _t(row: dict[str, str]) -> Fraction:
    return Fraction(int(row["t_num"]), int(row["t_den"]))


def _at(spec: str, t: Fraction) -> Quad:
    """The program's scalar evaluation path, independent of the grid build."""
    v = TakagiFunction(parse_scheme(spec)).at_dyadic(t)
    return v.a, v.b


def _pow2(n: int) -> Fraction:
    return Fraction(1, 1 << n)


def _qv_at_one(n: int) -> Quad:
    """The level-n quadratic variation over [0, 1]: 1 - 2**-n for every scheme."""
    return ONE - _pow2(n), Fraction(0)


def _bernoulli(rng: random.Random, c: int, i: int) -> str:
    return f"bernoulli:{P_PLUS[(c + i) % len(P_PLUS)]}:{rng.randrange(1 << 31)}"


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if r or not nonzero:
            return r


# -- request types -------------------------------------------------------------


def sample(spec: str, grid: int, rng: random.Random) -> Request:
    picks = [0, 1 << grid] + rng.sample(range(1, 1 << grid), 6)

    def check(out: str) -> str | None:
        rows = _rows(out)
        if len(rows) != (1 << grid) + 1:
            return f"{len(rows)} rows"
        for j in picks:
            t = Fraction(j, 1 << grid)
            x = (Fraction(rows[j]["value_a"]), Fraction(rows[j]["value_b"]))
            if Fraction(rows[j]["t"]) != t or x != _at(spec, t):
                return f"row {j} differs from at_dyadic"
            if not exact.decimal_ok(rows[j]["value_decimal"], x):
                return f"row {j} decimal"
        return None

    return Request("sample", check, ["sample", "--scheme", spec, "--grid", str(grid)])


def qv(spec: str, level: int, stride: int, rng: random.Random) -> Request:
    count = (1 << level) // stride + 1
    picks = [0, count - 1] + rng.sample(range(1, count - 1), min(6, count - 2))

    def check(out: str) -> str | None:
        rows = _rows(out)
        if len(rows) != count:
            return f"{len(rows)} rows"
        if _value(rows[-1]) != _qv_at_one(level):
            return "qv at t=1 is not 1 - 2**-n"
        if _value(rows[0]) != exact.ZERO:
            return "qv at t=0 is not 0"
        for i in picks:
            if _t(rows[i]) != Fraction(i * stride, 1 << level) or rows[i]["level"] != str(level):
                return f"row {i} has the wrong time or level"
            if not exact.decimal_ok(rows[i]["value_decimal"], _value(rows[i])):
                return f"row {i} decimal"
        return None

    argv = ["qv", "--scheme", spec, "--level", str(level), "--stride", str(stride)]
    return Request("qv", check, argv)


def cov(spec_x: str, spec_y: str, level: int) -> Request:
    """Covariation at t = 1: 2**-n * sum over m < n of <theta_x(m), theta_y(m)>.

    Cross terms between generations cancel over whole wedges, so only
    the same-generation coefficient products survive.
    """

    def expected() -> list[Quad]:
        sx, sy = parse_scheme(spec_x), parse_scheme(spec_y)
        out, acc = [], 0
        for n in range(1, level + 1):
            m = n - 1
            acc += (1 << m) if spec_x == spec_y else int(sx.row(m) @ sy.row(m))
            out.append((Fraction(acc, 1 << n), Fraction(0)))
        return out

    def check(out: str) -> str | None:
        rows = _rows(out)
        want = expected()
        if len(rows) != level:
            return f"{len(rows)} rows"
        for n, (row, w) in enumerate(zip(rows, want), start=1):
            if row["level"] != str(n) or _value(row) != w:
                return f"covariation at level {n} is not the coefficient inner product"
            if not exact.decimal_ok(row["value_decimal"], w):
                return f"level {n} decimal"
        return None

    argv = ["cov", "--scheme", spec_x, "--scheme-y", spec_y, "--level", str(level)]
    return Request("cov", check, argv)


def counterexample(levels: int) -> Request:
    """(all_plus, alt_m) at t = 1: cov_n = (1 - (-2)**n) / (3 * 2**n)."""

    def check(out: str) -> str | None:
        rows = _rows(out)
        if len(rows) != 2 * levels:
            return f"{len(rows)} rows"
        for row in rows:
            n = int(row["level"])
            even = n % 2 == 0
            c = Fraction(1 - (-2) ** n, 3 << n)
            if row["series"].endswith("cov"):
                want, limit = c, Fraction(-1 if even else 1, 3)
            else:
                want, limit = 2 * (ONE - _pow2(n)) + 2 * c, Fraction(4 if even else 8, 3)
            if row["series"] not in (("even_" if even else "odd_") + s for s in ("qv", "cov")):
                return f"level {n} filed under {row['series']}"
            if _value(row) != (want, Fraction(0)) or (c < 0) != even:
                return f"{row['series']} at level {n} breaks the even/odd closed form"
            if not exact.decimal_ok(row["distance_decimal"], (abs(want - limit), Fraction(0))):
                return f"level {n} distance decimal"
        return None

    return Request("counterexample", check, ["counterexample", "--levels", str(levels)])


def witness(levels: int) -> Request:
    """part_a: omega(h_n) - (1 + sqrt2) h_n; part_b: sqrt2 omega(h_n) - (2 + sqrt2) h_n."""

    def check(out: str) -> str | None:
        rows = _rows(out)
        if len(rows) != 2 * levels:
            return f"{len(rows)} rows"
        for row in rows:
            n = int(row["level"])
            h = Fraction(2, 3 << n)
            om = exact.omega(h)
            if row["kind"] == "part_a":
                want, t0 = exact.sub(om, (h, h)), Fraction(0)
            else:
                want = exact.sub(exact.mul((Fraction(0), ONE), om), (2 * h, h))
                t0 = Fraction(1, 2) - Fraction(1, 3 << n)
            if _value(row) != want or _t(row) != t0:
                return f"{row['kind']} witness at n={n}"
            if not exact.decimal_ok(row["ratio_decimal"], exact.div(want, om)):
                return f"{row['kind']} ratio decimal at n={n}"
        return None

    return Request("witness", check, ["witness", "--levels", str(levels)])


def extrema(spec: str, grid: int) -> Request:
    def check(out: str) -> str | None:
        rep = json.loads(out)
        hi, lo = exact.parse(rep["max"]), exact.parse(rep["min"])
        argmax = [Fraction(s) for s in rep["argmax"]]
        argmin = [Fraction(s) for s in rep["argmin"]]
        if rep["level"] != grid or exact.parse(rep["oscillation"]) != exact.sub(hi, lo):
            return "level or oscillation"
        for t in (argmax[0], argmax[-1]):
            if _at(spec, t) != hi:
                return f"max differs from at_dyadic({t})"
        for t in (argmin[0], argmin[-1]):
            if _at(spec, t) != lo:
                return f"min differs from at_dyadic({t})"
        for key, x in (("max", hi), ("min", lo), ("oscillation", exact.sub(hi, lo))):
            if not exact.decimal_ok(rep[key + "_decimal"], x):
                return f"{key} decimal"
        m = exact.max_value(grid)
        if spec == "all_plus":
            j = exact.jacobsthal(grid)
            peaks = [Fraction(j, 1 << grid), 1 - Fraction(j, 1 << grid)]
            if hi != m or argmax != peaks or lo != exact.ZERO or argmin != [0, 1]:
                return "all_plus extrema differ from M_N at the Jacobsthal points"
        if spec in ("half_split", "neg_half_split"):
            if exact.parse(rep["oscillation"]) != exact.sub(exact.scale(m, 2), (Fraction(1, 2), Fraction(0))):
                return "half-split oscillation is not 2 M_N - 1/2"
        return None

    return Request("extrema", check, ["extrema", "--scheme", spec, "--grid", str(grid)])


def _modulus_row_ok(spec: str, row: dict[str, str], verify_witness: bool) -> str | None:
    h = Fraction(int(row["h_num"]), int(row["h_den"]))
    x, om = _value(row), exact.omega(h)
    if int(row["nu"]) != exact.nu(h) or not exact.decimal_ok(row["omega_decimal"], om):
        return f"nu or omega at h={h}"
    bound = om if spec == "all_plus" else exact.mul((Fraction(0), ONE), om)
    if exact.sign(x) < 0 or exact.sign(exact.sub(bound, x)) < 0:
        return f"increment at h={h} exceeds the envelope"
    if verify_witness:
        t = _t(row)
        inc = exact.sub(_at(spec, t + h), _at(spec, t))
        if inc != x and inc != exact.scale(x, -1):
            return f"increment at h={h} differs from at_dyadic"
        if not exact.decimal_ok(row["ratio_decimal"], exact.div(x, om)):
            return f"ratio decimal at h={h}"
    return None


def modulus_sweep(spec: str, grid: int, rng: random.Random) -> Request:
    picks = set(rng.sample(range(1 << grid), 4))

    def check(out: str) -> str | None:
        rows = _rows(out)
        if len(rows) != 1 << grid:
            return f"{len(rows)} rows"
        for i, row in enumerate(rows):
            if Fraction(int(row["h_num"]), int(row["h_den"])) != Fraction(i + 1, 1 << grid):
                return f"row {i} has the wrong step"
            err = _modulus_row_ok(spec, row, i in picks)
            if err:
                return err
        return None

    return Request("modulus_sweep", check, ["modulus", "--scheme", spec, "--grid", str(grid)])


def modulus_step(spec: str, grid: int, rng: random.Random) -> Request:
    h = Fraction(rng.randrange(1, 1 << 12), 1 << grid)

    def check(out: str) -> str | None:
        rows = _rows(out)
        if len(rows) != 1 or Fraction(int(rows[0]["h_num"]), int(rows[0]["h_den"])) != h:
            return "one row at the requested step"
        return _modulus_row_ok(spec, rows[0], True)

    argv = ["modulus", "--scheme", spec, "--grid", str(grid), "--h", str(h)]
    return Request("modulus_step", check, argv)


def _poly_arg(coeffs: list[Fraction]) -> str:
    """Comma-separated coefficients, passed as ``--poly=...`` since they may start with '-'."""
    return ",".join(str(c) for c in coeffs)


def ito_quadratic(spec: str, level: int, rng: random.Random, profile: bool = False) -> Request:
    """f = c0 + c1 u + c2 u**2 at t = 1, where x(0) = x(1) = 0.

    The residual is c2 * (qv_n - 1) = -c2 2**-n and the Riemann sum of
    f' dx is -c2 (1 - 2**-n), for every scheme.
    """
    c = [_rational(rng), _rational(rng), _rational(rng, nonzero=True)]

    def check(out: str) -> str | None:
        rows = _rows(out)
        levels = range(1, level + 1) if profile else range(level, level + 1)
        if [int(r["level"]) for r in rows] != list(levels):
            return "levels"
        for n, row in zip(levels, rows):
            if _value(row) != (-c[2] * _pow2(n), Fraction(0)):
                return f"residual at level {n} is not -c2 2**-n"
            rsum = (-c[2] * (ONE - _pow2(n)), Fraction(0))
            if not exact.decimal_ok(row["riemann_sum_decimal"], rsum):
                return f"Riemann sum at level {n}"
        return None

    flag = "--levels" if profile else "--level"
    argv = ["ito", "--scheme", spec, f"--poly={_poly_arg(c)}", flag, str(level)]
    return Request("ito", check, argv)


def ito_mirror_pair(level: int, rng: random.Random) -> list[Request]:
    """A cubic f on neg_half_split against f(-u) on half_split.

    neg_half_split is -half_split, so both requests print the same rows.
    """
    c = [_rational(rng) for _ in range(3)] + [_rational(rng, nonzero=True)]
    mirrored = [ci if i % 2 == 0 else -ci for i, ci in enumerate(c)]
    seen: dict[str, str] = {}

    def first(out: str) -> str | None:
        seen["out"] = out
        return None if len(_rows(out)) == 1 else "one row"

    def second(out: str) -> str | None:
        return None if out == seen.get("out") else "f(x) on -x differs from f(-u) on x"

    def argv(spec: str, coeffs: list[Fraction]) -> list[str]:
        return ["ito", "--scheme", spec, f"--poly={_poly_arg(coeffs)}", "--level", str(level)]

    return [
        Request("ito", first, argv("neg_half_split", c)),
        Request("ito", second, argv("half_split", mirrored)),
    ]


def tour(spec: str, rng: random.Random) -> Request:
    """The README library tour at small sizes; touches every layer once.

    Calls go through the package namespace at call time, so the traced
    pass sees them.
    """
    j = rng.randrange(1, 1 << 12)
    h = Fraction(rng.randrange(1, 1 << 6), 1 << 12)
    c2 = _rational(rng, nonzero=True)
    poly = RationalPolynomial.of(0, 0, c2)

    def call() -> dict[str, Any]:
        fn = tq.TakagiFunction(tq.parse_scheme(spec))
        res = {
            "value": fn.at_dyadic(Fraction(j, 1 << 12)),
            "approx": fn.approx(Fraction(1, 7), Fraction(1, 10**9)),
            "extrema": tq.grid_extrema(fn, 10),
            "qv": tq.qv_approx(fn, 12, 1),
            "profile": tq.qv_profile(fn, 8, 16),
            "scan": tq.modulus_scan(fn, 12, h),
            "sweep": tq.sweep_all_steps(fn, 5),
            "ito": tq.ito_residual(poly, fn, 8, 1),
        }
        if spec in ("all_plus", "half_split", "neg_half_split"):
            res["thirds"] = tq.thirds_value(fn, Fraction(1, 3))
        return res

    def check(res: dict[str, Any]) -> str | None:
        p, q = TakagiFunction(parse_scheme(spec)).grid_pairs(12)
        if (res["value"].a, res["value"].b) != (Fraction(int(p[j]), 1 << 12), Fraction(int(q[j]), 1 << 12)):
            return "at_dyadic differs from the grid"
        if res["approx"][1] > Fraction(1, 10**9):
            return "tail bound above tolerance"
        ext = res["extrema"]
        if (ext.max.a, ext.max.b) != _at(spec, ext.argmax[0].as_fraction()):
            return "extrema max differs from at_dyadic"
        if (res["qv"].a, res["qv"].b) != _qv_at_one(12):
            return "qv at t=1 is not 1 - 2**-n"
        last = res["profile"].rows[-1]
        if len(res["profile"].rows) != 17 or (last.value.a, last.value.b) != _qv_at_one(8):
            return "qv profile does not end at 1 - 2**-n"
        for rep in [res["scan"], *res["sweep"]]:
            bound = exact.mul((Fraction(0), ONE), exact.omega(rep.h))
            if exact.sign(exact.sub(bound, (rep.scan_max.a, rep.scan_max.b))) < 0:
                return f"increment at h={rep.h} exceeds sqrt2 omega"
        if (res["ito"].a, res["ito"].b) != (-c2 * _pow2(8), 0):
            return "quadratic residual is not -c2 2**-n"
        if "thirds" in res:
            peak = Fraction(2, 3), Fraction(1, 3)
            want = exact.scale(peak, -1) if spec == "neg_half_split" else peak
            if (res["thirds"].a, res["thirds"].b) != want:
                return "value at 1/3 is not (2 + sqrt2)/3"
        return None

    return Request("tour", check, call=call)


# -- workloads -----------------------------------------------------------------


def _strided(spec: str, level: int, rng: random.Random) -> Request:
    return qv(spec, level, 1 << (level - rng.randint(4, 8)), rng)


def _tables(c: int, s: Callable[[int], str], rng: random.Random) -> list[Request]:
    return [
        sample(s(0), 9, rng),
        sample(s(1), 10, rng),
        sample(s(2), 10, rng),
        sample(s(3), 11, rng),
        qv(s(4), 11, 1, rng),
        witness(rng.randint(12, 20)),
        witness(rng.randint(24, 30)),
        counterexample(rng.randint(10, 16)),
        counterexample(rng.randint(10, 16)),
        ito_quadratic(s(5), 14, rng, profile=True),
        *ito_mirror_pair(14, rng),
        modulus_sweep(s(0), 8, rng),
        tour(s(1), rng),
    ]


def _big_grid(c: int, s: Callable[[int], str], rng: random.Random) -> list[Request]:
    b = [_bernoulli(rng, c, i) for i in range(3)]
    return [
        extrema(s(0), 21),
        extrema(s(1), 21),
        extrema(s(2), 21),
        _strided(s(3), 20, rng),
        _strided(s(4), 21, rng),
        counterexample(20),
        extrema(b[0], 15),
        cov(b[1], b[2], 15),
        modulus_step(s(5), 20, rng),
        tour(s(0), rng),
    ]


def _warmup_tables(s: Callable[[int], str], rng: random.Random) -> list[Request]:
    return [
        sample(s(0), 5, rng),
        qv(s(1), 5, 1, rng),
        witness(4),
        counterexample(4),
        ito_quadratic(s(2), 8, rng, profile=True),
        *ito_mirror_pair(6, rng),
        modulus_sweep(s(3), 4, rng),
        tour(s(4), rng),
    ]


def _warmup_grids(s: Callable[[int], str], rng: random.Random) -> list[Request]:
    b = _bernoulli(rng, 0, 0)
    return [
        extrema(s(0), 8),
        _strided(s(1), 8, rng),
        cov(b, b, 8),
        counterexample(8),
        modulus_step(s(2), 12, rng),
        tour(s(3), rng),
    ]


@dataclass(frozen=True)
class Workload:
    """A named request mix; why each exists is recorded in BENCHMARK.json."""

    name: str
    cycle: Callable[[int, Callable[[int], str], random.Random], list[Request]]
    warmup: Callable[[Callable[[int], str], random.Random], list[Request]]

    def generate(self, seed: int) -> tuple[list[Request], list[Request]]:
        """(warm-up requests, one round), a pure function of the seed.

        A round is one cycle per named scheme, the schemes rotated one
        slot further each cycle, so every slot meets every named scheme.
        """
        rng = random.Random(f"{self.name}:{seed}")
        order = rng.sample(NAMED, len(NAMED))
        warm = self.warmup(lambda i: order[i % len(order)], rng)
        round_ = []
        for c in range(len(NAMED)):
            round_ += self.cycle(c, lambda i, c=c: order[(i + c) % len(order)], rng)
        return warm, round_


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tables", _tables, _warmup_tables),
        Workload("big_grid", _big_grid, _warmup_grids),
    )
}
