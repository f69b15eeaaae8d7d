"""Command-line front end: evaluate, scan, and export CSV/JSON tables.

Times and steps are parsed as exact fractions only (``num`` or ``num/den``);
decimal input is rejected so no precision is lost at the boundary.  All
output is deterministic for a fixed command line, including bernoulli
schemes (the seed is part of the scheme spec).  Every value is computed
before the first line is written, so a failing command prints nothing to
stdout.  Rows of grid values and sums are written column by column from
their integer pairs: reduced fractions from trailing zeros, decimals from
a float screen with an exact fallback (``qfield.decimal_column``), and
each CSV line from one format call.  The argument parser is built once
per process.

Exit codes: 0 success, 2 invalid configuration, 3 scheme depth exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import repeat, starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .extrema import grid_extrema
from .follmer import RationalPolynomial, _residual_and_sum
from .modulus import _omega_pair, modulus_scan, sweep_all_steps, witness_ratios, witness_steps
from .qfield import Dyadic, QuadValue, decimal_column, decimal_pair, decimal_ratio
from .quadvar import QVSeries, _first_level, counterexample_series, cov_profile, qv_profile
from .schemes import SchemeDepthError, parse_exact_fraction, parse_scheme
from .takagi import GRID_LEVEL_CAP, TakagiFunction, thirds_value

DECIMAL_DIGITS = 12

#: Rows of a long table are built this many at a time.
ROW_CHUNK = 1 << 14

#: ``witness --levels`` above this is refused: the rows' exact arithmetic
#: grows fast with the level (about 1.5 s at 1000, 15 s at 2400).
WITNESS_LEVEL_CAP = 1000

#: ``eval --digits`` above this is refused: CPython converts at most 4300 int digits to str.
DIGITS_CAP = 1000

#: Base CSV schema for series rows; some commands append extra columns.
SERIES_FIELDS = (
    "level",
    "t_num",
    "t_den",
    "value_a_num",
    "value_a_den",
    "value_b_num",
    "value_b_den",
    "value_decimal",
)


def _reduced(num: Sequence[int] | np.ndarray, bits: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators of num / 2**bits in lowest terms, elementwise.

    From the trailing zeros of num (``num & -num``), in int64: every entry
    and 2**bits must fit, as GRID_LEVEL_CAP ensures for grid values and sums.
    """
    num = np.asarray(num, dtype=np.int64)
    den = 1 << bits
    low = np.minimum(num & -num, den)  # the power of two that cancels
    low[num == 0] = den
    return (num // low).tolist(), (den // low).tolist()


def _fraction_column(num: Sequence[int] | np.ndarray, bits: int) -> list[str]:
    """str(Fraction(num[i], 2**bits)) for every i."""
    return [f"{n}/{d}" if d != 1 else str(n) for n, d in zip(*_reduced(num, bits))]


def _chunked_rows(length: int, columns: Callable[[slice], Iterable[Iterable]]) -> Iterator[tuple]:
    """Rows zipped from the columns of each slice of ROW_CHUNK rows.

    Nothing is built before the first row is asked for, and a long table
    never holds all its columns at once.
    """
    for lo in range(0, length, ROW_CHUNK):
        yield from zip(*columns(slice(lo, lo + ROW_CHUNK)))


def _pair_rows(level: int, t_num: Sequence[int] | np.ndarray, t_bits: int,
               p: Sequence[int] | np.ndarray, q: Sequence[int] | np.ndarray,
               bits: int, *extra: Sequence) -> Iterator[tuple]:
    """SERIES_FIELDS cells of the values (p + q*sqrt(2)) / 2**bits at the times t_num / 2**t_bits,
    then one cell from each extra column."""
    t_num = np.asarray(t_num, dtype=np.int64)
    p, q = np.asarray(p, dtype=np.int64), np.asarray(q, dtype=np.int64)

    def columns(part: slice) -> list[Iterable]:
        return [repeat(level), *_reduced(t_num[part], t_bits), *_reduced(p[part], bits),
                *_reduced(q[part], bits), decimal_column(p[part], q[part], bits, DECIMAL_DIGITS),
                *(column[part] for column in extra)]

    return _chunked_rows(len(p), columns)


def _value_row(level: int, t: Fraction, value: QuadValue) -> list:
    """SERIES_FIELDS cells of an exact value at t."""
    a, b = value.a, value.b
    return [level, t.numerator, t.denominator, a.numerator, a.denominator,
            b.numerator, b.denominator, value.decimal(DECIMAL_DIGITS)]


def _emit(rows: Iterable[Sequence], fields: list[str], args: argparse.Namespace) -> None:
    """Rows of cells in field order, as CSV lines or a JSON list of records.

    A row has one int or str cell per field; a CSV line is one format call.
    """
    if args.format == "json":
        text = json.dumps([dict(zip(fields, row)) for row in rows], indent=2) + "\n"
    else:
        line = ",".join(["{}"] * len(fields)).format
        text = "\n".join([",".join(fields), *starmap(line, rows), ""])
    _write(text, args)


def _write(text: str, args: argparse.Namespace) -> None:
    """Write text to the --out path, or to stdout without one."""
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _scheme(args: argparse.Namespace, attr: str = "scheme") -> TakagiFunction:
    spec = getattr(args, attr.replace("-", "_"))
    # allow 'bernoulli:p' with the seed supplied via --seed
    if spec.startswith("bernoulli:") and spec.count(":") == 1:
        spec = f"{spec}:{args.seed}"
    return TakagiFunction(parse_scheme(spec))


def _level(args: argparse.Namespace, option: str) -> int:
    """The grid level given as --option, refused outside [0, GRID_LEVEL_CAP].

    Runs before any grid is built, so a profile whose last level has no
    grid fails before its first level.
    """
    level = getattr(args, option)
    if not 0 <= level <= GRID_LEVEL_CAP:
        raise ValueError(f"--{option} must be in [0, {GRID_LEVEL_CAP}], got {level}")
    return level


def _is_dyadic(t: Fraction) -> bool:
    return t.denominator & (t.denominator - 1) == 0


def cmd_eval(args: argparse.Namespace) -> None:
    if not 1 <= args.digits <= DIGITS_CAP:
        raise ValueError(f"--digits must be in [1, {DIGITS_CAP}], got {args.digits}")
    fn = _scheme(args)
    t = parse_exact_fraction(args.t)
    tol = parse_exact_fraction(args.tol)
    bound = None
    if _is_dyadic(t):
        v = fn.at_dyadic(t)
    else:
        try:
            v = thirds_value(fn, t)
        except ValueError:
            v, bound = fn.approx(t, tol)
    # every value is computed before the first line is printed
    lines = [
        f"scheme: {fn.scheme.spec}",
        f"t: {t}",
        f"value: {v}" + ("" if bound is None else "  (truncated series)"),
        f"decimal: {v.decimal(args.digits)}",
    ]
    if bound is not None:
        lines.append(f"tail_bound: {bound.decimal(args.digits)}")
    print("\n".join(lines))


def cmd_sample(args: argparse.Namespace) -> None:
    fn = _scheme(args)
    n = _level(args, "grid")
    p, q = fn.grid_pairs(n)

    def columns(part: slice) -> list[list[str]]:
        t_num = np.arange(*part.indices(len(p)))
        return [_fraction_column(t_num, n), decimal_column(p[part], q[part], n, DECIMAL_DIGITS),
                _fraction_column(p[part], n), _fraction_column(q[part], n)]

    _emit(_chunked_rows(len(p), columns), ["t", "value_decimal", "value_a", "value_b"], args)


def cmd_extrema(args: argparse.Namespace) -> None:
    rep = grid_extrema(_scheme(args), _level(args, "grid"))
    record = {
        "level": rep.level,
        "max": str(rep.max),
        "max_decimal": rep.max.decimal(DECIMAL_DIGITS),
        "argmax": [str(d) for d in rep.argmax],
        "min": str(rep.min),
        "min_decimal": rep.min.decimal(DECIMAL_DIGITS),
        "argmin": [str(d) for d in rep.argmin],
        "oscillation": str(rep.oscillation),
        "oscillation_decimal": rep.oscillation.decimal(DECIMAL_DIGITS),
    }
    _write(json.dumps(record, indent=2) + "\n", args)


def cmd_qv(args: argparse.Namespace) -> None:
    fn = _scheme(args)
    n = _level(args, "level")
    limit = None if args.t is None else parse_exact_fraction(args.t)
    if limit is not None and not 0 <= limit <= 1:
        raise ValueError(f"--t must be in [0, 1], got {limit}")
    sums = qv_profile(fn, n, args.stride).sums  # validates the stride
    # the rows at t = i * stride / 2**n <= limit
    count = None if limit is None else math.floor(limit * (1 << n)) // sums.stride + 1
    a, b = sums.a[:count], sums.b[:count]
    t_num = np.arange(len(a)) * sums.stride
    _emit(_pair_rows(n, t_num, n, a, b, 2 * n), list(SERIES_FIELDS), args)


def _series_rows(series: QVSeries, *extra: str) -> list[list]:
    """Cells of a series' rows, then the extra cells, then the distance if the rows carry one."""
    rows = []
    for r in series.rows:
        row = _value_row(r.level, r.t.as_fraction(), r.value) + list(extra)
        if r.distance is not None:
            row.append(r.distance.decimal(DECIMAL_DIGITS))
        rows.append(row)
    return rows


def cmd_cov(args: argparse.Namespace) -> None:
    fx = _scheme(args)
    fy = _scheme(args, "scheme_y")
    t = Dyadic.from_fraction(parse_exact_fraction(args.t))
    if t.exp > _level(args, "level"):
        raise ValueError(f"t={t} needs level >= {t.exp}")
    series = cov_profile(fx, fy, args.level, t)
    _emit(_series_rows(series), list(SERIES_FIELDS), args)


def cmd_counterexample(args: argparse.Namespace) -> None:
    t = Dyadic.from_fraction(parse_exact_fraction(args.t))
    study = counterexample_series(_level(args, "levels"), t)
    rows = []
    for name in ("even_qv", "odd_qv", "even_cov", "odd_cov"):
        rows += _series_rows(getattr(study, name), name)
    fields = list(SERIES_FIELDS) + ["series", "distance_decimal"]
    _emit(rows, fields, args)


def cmd_modulus(args: argparse.Namespace) -> None:
    fn = _scheme(args)
    grid = _level(args, "grid")
    if args.h is not None:
        reports = [modulus_scan(fn, grid, parse_exact_fraction(args.h))]
    else:
        reports = sweep_all_steps(fn, grid)
    ties, mp, mq, js, nus = zip(*[(rep.tie, *rep.pair, rep.j, rep.nu) for rep in reports])
    omegas = [_omega_pair(j, 1 << grid) for j in js]
    rows = _pair_rows(grid, ties, grid, mp, mq, grid, ["modulus"] * len(reports), *_reduced(js, grid), nus,
                      [decimal_pair(*om, DECIMAL_DIGITS) for om in omegas],
                      [decimal_ratio((p, q, 1 << grid), om, 8) for p, q, om in zip(mp, mq, omegas)])
    fields = list(SERIES_FIELDS) + ["kind", "h_num", "h_den", "nu", "omega_decimal", "ratio_decimal"]
    _emit(rows, fields, args)


def cmd_witness(args: argparse.Namespace) -> None:
    if not 1 <= args.levels <= WITNESS_LEVEL_CAP:
        # a row count, not a grid level: witness rows use closed forms
        raise ValueError(f"--levels must be in [1, {WITNESS_LEVEL_CAP}], got {args.levels}")
    rows = []
    for kind in ("part_a", "part_b"):
        for row in witness_ratios(kind, 1, args.levels):
            t_n, _ = witness_steps(row.n)
            t0 = Fraction(0) if kind == "part_a" else t_n
            rows.append(_value_row(row.n, t0, row.increment) + [kind, row.ratio_decimal])
    fields = list(SERIES_FIELDS) + ["kind", "ratio_decimal"]
    _emit(rows, fields, args)


def cmd_ito(args: argparse.Namespace) -> None:
    if (args.level is None) == (args.levels is None):
        raise ValueError("ito needs exactly one of --level and --levels")
    fn = _scheme(args)
    poly = RationalPolynomial.parse(args.poly)
    t = Dyadic.from_fraction(parse_exact_fraction(args.t))
    if args.levels is None:
        levels = [_level(args, "level")]
    else:
        levels = range(_first_level(t), _level(args, "levels") + 1)
        if not levels:
            raise ValueError(f"--levels {args.levels} below the first level {levels.start} carrying t={t}")
    rows = []
    for n in levels:
        res, rsum = _residual_and_sum(poly, fn, n, t)
        rows.append(_value_row(n, t.as_fraction(), res)
                    + ["ito_residual", rsum.decimal(DECIMAL_DIGITS)])
    fields = list(SERIES_FIELDS) + ["kind", "riemann_sum_decimal"]
    _emit(rows, fields, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="takagiqv",
        description="Exact analysis of +/-1 wedge-coefficient functions: "
        "evaluation, extrema, moduli of continuity, quadratic variation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scheme: bool = True) -> None:
        if scheme:
            p.add_argument("--scheme", default="all_plus",
                           help="scheme spec, e.g. all_plus, alt_m, block:5, "
                                "bernoulli:1/2:7, file:PATH")
        p.add_argument("--seed", type=int, default=0,
                       help="seed used when a bernoulli spec omits one")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("eval", help="exact or certified value at one point")
    common(p)
    p.add_argument("--t", required=True, help="time as an exact fraction, e.g. 5/16")
    p.add_argument("--tol", default="1/1000000000000",
                   help="tail tolerance for non-closed-form points")
    p.add_argument("--digits", type=int, default=DECIMAL_DIGITS)

    p = sub.add_parser("sample", help="all values on a dyadic grid")
    common(p)
    p.add_argument("--grid", type=int, required=True, help="grid level N")

    p = sub.add_parser("extrema", help="exact grid extrema report (JSON)")
    common(p)
    p.add_argument("--grid", type=int, required=True)

    p = sub.add_parser("qv", help="running quadratic-variation profile")
    common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--t", help="truncate rows after this time")

    p = sub.add_parser("cov", help="covariation of two schemes across levels")
    common(p)
    p.add_argument("--scheme-y", default="alt_m", dest="scheme_y")
    p.add_argument("--level", type=int, required=True, help="largest level")
    p.add_argument("--t", default="1")

    p = sub.add_parser("counterexample",
                       help="qv-of-sum and covariation subsequences for (all_plus, alt_m)")
    common(p, scheme=False)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--t", default="1")

    p = sub.add_parser("modulus", help="largest grid increment vs the envelope")
    common(p)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--h", help="step as an exact fraction; omit to sweep all steps")

    p = sub.add_parser("witness", help="sharpness witnesses of the envelope bounds")
    common(p, scheme=False)
    p.add_argument("--levels", type=int, default=12)

    p = sub.add_parser("ito", help="Riemann-sum residual for a polynomial integrand")
    common(p)
    p.add_argument("--poly", required=True,
                   help="comma-separated rational coefficients, ascending degree")
    p.add_argument("--level", type=int, help="one level (give --level or --levels)")
    p.add_argument("--levels", type=int, help="emit a profile up to this level")
    p.add_argument("--t", default="1")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: built on the first call, then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a cmd_* replaced after the parser was built still runs
    command = globals()[f"cmd_{args.command}"]
    try:
        command(args)
    except SchemeDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
