"""Command-line front end: evaluate, scan, and export CSV/JSON tables.

Times and steps are parsed as exact fractions only (``num`` or ``num/den``);
decimal input is rejected so no precision is lost at the boundary.  All
output is deterministic for a fixed command line, including bernoulli
schemes (the seed is part of the scheme spec).  Every value is computed
before the first line is written, so a failing command prints nothing to
stdout.  Every table goes through one writer, ``_emit``: its fields make
one ``%`` template (a CSV line, or a record as ``json.dumps(..., indent=2)``
prints it), and a row is one ``template % cells`` over int columns and
float decimals from a screen with an exact fallback (``qfield.decimal_column``,
for the sweep's omega and ratio columns too).  Tables over ROW_BUDGET rows
are refused before any grid is built.  The argument parser is built once
per process.  A command offers only the options it reads (``--seed`` goes
with ``--scheme``), writes through ``_write`` to ``--out`` or stdout, and
checks each integer option's range with one helper that names the option.

Exit codes: 0 success, 2 invalid configuration (a command line argparse
refuses too), 3 scheme depth exceeded; every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .extrema import grid_extrema
from .follmer import RationalPolynomial, _residual_and_sum
from .modulus import _omega_pair, modulus_scan, sweep_all_steps, witness_ratios
from .qfield import Dyadic, decimal_column, decimal_pair
from .quadvar import QVSeries, _first_level, _profile_sums, counterexample_series, cov_profile
from .schemes import SchemeDepthError, parse_exact_fraction, parse_scheme
from .takagi import GRID_LEVEL_CAP, TakagiFunction, thirds_value

DECIMAL_DIGITS = 12

#: The cell format of a screened decimal column of DECIMAL_DIGITS places.
DECIMAL = f"%.{DECIMAL_DIGITS}f"

#: Rows of a long table are built this many at a time.
ROW_CHUNK = 1 << 14

#: A table of more rows is refused before any grid is built: ``sample --grid``
#: and stride-1 ``qv --level`` up to 22 are accepted.
ROW_BUDGET = (1 << 22) + 1

#: ``witness --levels`` above this is refused: row n's integers have about n
#: bits, so the table grows quadratically (1.3 MB of CSV at 1000, 7.2 MB at
#: 2400) and its time too: 0.2 s at 1000, 0.6 s at 2400 and 3 s at 5000 in a
#: fresh process on a 2-vCPU x86-64 machine.
WITNESS_LEVEL_CAP = 1000

#: ``ito`` is refused above this ``_ito_work``: a unit took 0.2-0.6 ns on a 2-vCPU x86-64 machine
#: (``--poly 0,0,0,1 --level 26``, 5-6 s, is 2.1e10 units), so the budget is about 10-30 s.
ITO_BUDGET = 5 * 10**10

#: ``eval --digits`` above this is refused: CPython converts at most 4300 int digits to str.
DIGITS_CAP = 1000

#: The int fields of a series row, then the value's decimal; some commands append extra fields.
SERIES_FIELDS = ("level", "t_num", "t_den", "value_a_num", "value_a_den", "value_b_num", "value_b_den", "value_decimal")


def _reduced(num: Sequence[int] | np.ndarray, bits: int, suffix: bool = False) -> tuple[list[int], list]:
    """Numerators and denominators of num / 2**bits in lowest terms, elementwise, for int64 num;
    with suffix, each denominator as the "/den" of a ``%d%s`` fraction ("" for 1), as Fraction prints it.

    num is shifted right by its trailing zeros, the exponent of the float of ``num & -num``.
    """
    num = np.asarray(num, dtype=np.int64)
    low = (num & -num).astype(np.float64)  # a power of two, -2**63 or 0: exact
    zeros = np.where(num == 0, bits, np.minimum(np.frexp(low)[1] - 1, bits))
    k = bits - zeros
    dens = np.array([""] + [f"/{1 << i}" for i in range(1, bits + 1)], dtype=object)[k] if suffix else np.int64(1) << k
    return (num >> zeros).tolist(), dens.tolist()


def _pair_columns(level: int, t_num: np.ndarray, t_bits: int, p: np.ndarray, q: np.ndarray, bits: int) -> list:
    """SERIES_FIELDS columns of the values (p + q*sqrt(2)) / 2**bits at the times t_num / 2**t_bits."""
    return [[level] * len(p), *_reduced(t_num, t_bits), *_reduced(p, bits), *_reduced(q, bits),
            decimal_column(p, q, 1 << bits, DECIMAL_DIGITS)]


def _value_row(level: int, t: Fraction, p: int, q: int, d: int) -> list:
    """SERIES_FIELDS cells of the exact value (p + q*sqrt(2)) / d, d > 0, at t."""
    ga, gb = gcd(p, d), gcd(q, d)
    return [level, t.numerator, t.denominator, p // ga, d // ga, q // gb, d // gb,
            decimal_pair(p, q, d, DECIMAL_DIGITS)]


def _series(decimal: str, *extra: tuple[str, str]) -> list[tuple[str, str]]:
    """SERIES_FIELDS with their cell formats, the value's decimal as `decimal`, then the extra fields."""
    return [*((name, "%d") for name in SERIES_FIELDS[:-1]), (SERIES_FIELDS[-1], decimal), *extra]


def _rows(count: int, option: str) -> None:
    """Refuse a table of more than ROW_BUDGET rows, naming the option that sets its size."""
    if count > ROW_BUDGET:
        raise ValueError(f"{count} rows exceed the table budget of {ROW_BUDGET}: lower --{option}")


def _emit(fields: Sequence[tuple[str, str]], chunks: Iterable[list], args: argparse.Namespace) -> None:
    """A table as CSV lines, or as the JSON list of records ``json.dumps(..., indent=2)`` prints.

    The (name, format) fields make one row template: ``%d`` an int (a JSON
    number), ``%s`` a text, ``%d%s`` a fraction from ``_reduced(..., suffix=True)``
    and ``%.Nf`` a ``decimal_column``.  A chunk holds its rows' cells column
    by column.  A row is one ``template % cells``; a row with an exact decimal
    is formatted again with ``%s`` for every ``%.Nf``.
    """
    json_ = args.format == "json"
    specs = (f'    "{name}": ' + (fmt if fmt == "%d" else f'"{fmt}"') if json_ else fmt for name, fmt in fields)
    row = "  {\n" + ",\n".join(specs) + "\n  }" if json_ else ",".join(specs)
    again = re.sub(r"%\.\d+f", "%s", row)
    formats = re.findall(r"%(?:\.\d+f|[ds])", row)
    screened = [k for k, fmt in enumerate(formats) if fmt.endswith("f")]
    sep, texts = ",\n" if json_ else "\n", []
    for columns in chunks:
        cells = [column[0] if k in screened else column for k, column in enumerate(columns)]
        lines = list(map(row.__mod__, zip(*cells)))
        for i in set().union(*(columns[k][1] for k in screened)):
            cell = [column[i] for column in cells]
            for k in screened:
                cell[k] = columns[k][1].get(i) or formats[k] % cell[k]
            lines[i] = again % tuple(cell)
        texts += [sep, sep.join(lines)] if lines else []
    if json_:
        _write(["[\n", *texts[1:], "\n]\n"] if texts else ["[]\n"], args)
    else:
        _write([",".join(name for name, _ in fields), *texts, "\n"], args)


def _write(texts: list[str], args: argparse.Namespace) -> None:
    """Write the texts in order to the --out path, or to stdout without one."""
    if args.out:
        with open(args.out, "w") as out:
            out.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def _scheme(args: argparse.Namespace, attr: str = "scheme") -> TakagiFunction:
    spec = getattr(args, attr.replace("-", "_"))
    # allow 'bernoulli:p' with the seed supplied via --seed
    if spec.startswith("bernoulli:") and spec.count(":") == 1:
        spec = f"{spec}:{args.seed}"
    return TakagiFunction(parse_scheme(spec))


def _level(args: argparse.Namespace, option: str, lo: int = 0, hi: int = GRID_LEVEL_CAP) -> int:
    """The integer given as --option, refused outside [lo, hi]: by default a grid level.

    Runs before any grid is built, so a profile whose last level has no
    grid fails before its first level.
    """
    value = getattr(args, option)
    if not lo <= value <= hi:
        raise ValueError(f"--{option} must be in [{lo}, {hi}], got {value}")
    return value


def _level_range(args: argparse.Namespace, option: str, t: Dyadic) -> range:
    """The levels of a profile at t, from the first carrying t to --option, refused if empty."""
    first, top = _first_level(t), _level(args, option)
    if top < first:
        raise ValueError(f"--{option} {top} below the first level {first} carrying t={t}")
    return range(first, top + 1)


def cmd_eval(args: argparse.Namespace) -> None:
    digits = _level(args, "digits", 1, DIGITS_CAP)
    tol = parse_exact_fraction(args.tol)
    # a tail bound finer than the most digits printed shows nothing, and its levels cost O(L**2)
    if tol < Fraction(1, 10**DIGITS_CAP):
        raise ValueError(f"--tol must be at least 1/10**{DIGITS_CAP}, got {args.tol}")
    fn = _scheme(args)
    t = parse_exact_fraction(args.t)
    bound = None
    if t.denominator & (t.denominator - 1) == 0:  # a dyadic point
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
        f"decimal: {v.decimal(digits)}",
    ]
    if bound is not None:
        lines.append(f"tail_bound: {bound.decimal(digits)}")
    _write(["\n".join(lines) + "\n"], args)


def cmd_sample(args: argparse.Namespace) -> None:
    fn = _scheme(args)
    n = _level(args, "grid")
    _rows((1 << n) + 1, "grid")

    def chunks() -> Iterable[list]:
        for off, p, q in fn._blocks(n):  # a block's first point ends the block before it
            for lo in range(1 if off else 0, len(p), ROW_CHUNK):
                part = slice(lo, lo + ROW_CHUNK)
                yield [*_reduced(off + np.arange(*part.indices(len(p))), n, True),
                       decimal_column(p[part], q[part], 1 << n, DECIMAL_DIGITS),
                       *_reduced(p[part], n, True), *_reduced(q[part], n, True)]

    _emit([("t", "%d%s"), ("value_decimal", DECIMAL), ("value_a", "%d%s"), ("value_b", "%d%s")], chunks(), args)


def cmd_extrema(args: argparse.Namespace) -> None:
    rep = grid_extrema(_scheme(args), _level(args, "grid", 1))
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
    _write([json.dumps(record, indent=2) + "\n"], args)


def cmd_qv(args: argparse.Namespace) -> None:
    fn = _scheme(args)
    n = _level(args, "level")
    t = parse_exact_fraction(args.t)
    if not 0 <= t <= 1:
        raise ValueError(f"--t must be in [0, 1], got {t}")
    if args.stride > 0 and not (1 << n) % args.stride:  # _profile_sums refuses the other strides
        _rows((t.numerator << n) // t.denominator // args.stride + 1, "level")
    a, b = _profile_sums(fn, n, args.stride, t)

    def columns(lo: int) -> list:
        part = slice(lo, lo + ROW_CHUNK)
        return _pair_columns(n, np.arange(*part.indices(len(a))) * args.stride, n, a[part], b[part], 2 * n)

    _emit(_series(DECIMAL), map(columns, range(0, len(a), ROW_CHUNK)), args)


def _series_rows(series: QVSeries, *extra: str) -> list[list]:
    """Cells of a series' rows, then the extra cells, then the distance if the rows carry one."""
    rows = []
    for r in series.rows:
        row = _value_row(r.level, r.t.as_fraction(), *r.value.pair()) + list(extra)
        if r.distance is not None:
            row.append(r.distance.decimal(DECIMAL_DIGITS))
        rows.append(row)
    return rows


def cmd_cov(args: argparse.Namespace) -> None:
    fx = _scheme(args)
    fy = _scheme(args, "scheme_y")
    t = Dyadic.from_fraction(parse_exact_fraction(args.t))
    series = cov_profile(fx, fy, _level_range(args, "level", t)[-1], t)
    _emit(_series("%s"), [list(zip(*_series_rows(series)))], args)


def cmd_counterexample(args: argparse.Namespace) -> None:
    t = Dyadic.from_fraction(parse_exact_fraction(args.t))
    study = counterexample_series(_level_range(args, "levels", t)[-1], t)
    rows = []
    for name in ("even_qv", "odd_qv", "even_cov", "odd_cov"):
        rows += _series_rows(getattr(study, name), name)
    _emit(_series("%s", ("series", "%s"), ("distance_decimal", "%s")), [list(zip(*rows))], args)


def cmd_modulus(args: argparse.Namespace) -> None:
    fn = _scheme(args)
    grid = _level(args, "grid")
    if args.h is not None:
        reports = [modulus_scan(fn, grid, parse_exact_fraction(args.h))]
    else:
        reports = sweep_all_steps(fn, grid)
    ties, mp, mq, js = np.array([(rep.tie, *rep.pair, rep.j) for rep in reports], dtype=np.int64).T
    omega = np.array([_omega_pair(j, 1 << grid) for j in js.tolist()], dtype=np.int64).T
    columns = [*_pair_columns(grid, ties, grid, mp, mq, grid), ["modulus"] * len(js), *_reduced(js, grid),
               [rep.nu for rep in reports], decimal_column(*omega, DECIMAL_DIGITS),
               decimal_column(mp, mq, 1 << grid, 8, over=omega)]
    fields = _series(DECIMAL, ("kind", "%s"), ("h_num", "%d"), ("h_den", "%d"), ("nu", "%d"),
                     ("omega_decimal", DECIMAL), ("ratio_decimal", "%.8f"))
    _emit(fields, [columns], args)


def cmd_witness(args: argparse.Namespace) -> None:
    # a row count, not a grid level: witness rows use closed forms
    levels = _level(args, "levels", 1, WITNESS_LEVEL_CAP)
    rows = []
    for kind in ("part_a", "part_b"):
        for row in witness_ratios(kind, 1, levels):
            # t_n = 1/2 - (1/3) 2**-n for part_b
            t0 = Fraction((3 << row.n) - 2, 3 << (row.n + 1)) if kind == "part_b" else Fraction(0)
            rows.append(_value_row(row.n, t0, *row.increment.pair()) + [kind, row.ratio_decimal])
    _emit(_series("%s", ("kind", "%s"), ("ratio_decimal", "%s")), [list(zip(*rows))], args)


def _ito_work(degree: int, levels: Iterable[int], t: Fraction) -> int:
    """Estimated work of ``ito``'s power sums: per level n, the grid points read to t times the
    degree + 1 powers times P (P + 16), P the kernel's primes for values of about degree (n + 4) bits."""
    primes = [(degree * (n + 4) + n) // 30 + 1 for n in levels]
    return sum(((t.numerator << n) // t.denominator + 1) * (degree + 1) * P * (P + 16) for n, P in zip(levels, primes))


def cmd_ito(args: argparse.Namespace) -> None:
    if (args.level is None) == (args.levels is None):
        raise ValueError("ito needs exactly one of --level and --levels")
    fn = _scheme(args)
    poly = RationalPolynomial.parse(args.poly)
    t = Dyadic.from_fraction(parse_exact_fraction(args.t))
    levels = [_level(args, "level")] if args.levels is None else _level_range(args, "levels", t)
    if _ito_work(poly.degree, levels, t.as_fraction()) > ITO_BUDGET:
        raise ValueError(f"ito exceeds its work budget: lower --poly or --level{'' if args.levels is None else 's'}")
    rows = []
    for n in levels:
        res, rsum = _residual_and_sum(poly, fn, n, t)
        rows.append(_value_row(n, t.as_fraction(), *res) + ["ito_residual", decimal_pair(*rsum, DECIMAL_DIGITS)])
    _emit(_series("%s", ("kind", "%s"), ("riemann_sum_decimal", "%s")), [list(zip(*rows))], args)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Refuse the command line with a ValueError naming the subcommand: main prints one error line."""
        command = self.prog.partition(" ")[2]
        raise ValueError(f"{command}: {message}" if command else message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="takagiqv",
        description="Exact analysis of +/-1 wedge-coefficient functions: "
        "evaluation, extrema, moduli of continuity, quadratic variation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scheme: bool = True, table: bool = True) -> None:
        if scheme:
            p.add_argument("--scheme", default="all_plus",
                           help="scheme spec, e.g. all_plus, alt_m, block:5, "
                                "bernoulli:1/2:7, file:PATH")
            p.add_argument("--seed", type=int, default=0,
                           help="seed used when a bernoulli spec omits one")
        p.add_argument("--out", help="output path (default: stdout)")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("eval", help="exact or certified value at one point")
    common(p, table=False)
    p.add_argument("--t", required=True, help="time as an exact fraction, e.g. 5/16")
    p.add_argument("--tol", default="1/1000000000000",
                   help="tail tolerance for non-closed-form points")
    p.add_argument("--digits", type=int, default=DECIMAL_DIGITS)

    p = sub.add_parser("sample", help="all values on a dyadic grid")
    common(p)
    p.add_argument("--grid", type=int, required=True, help="grid level N")

    p = sub.add_parser("extrema", help="exact grid extrema report (JSON)")
    common(p, table=False)
    p.add_argument("--grid", type=int, required=True)

    p = sub.add_parser("qv", help="running quadratic-variation profile")
    common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--t", default="1", help="truncate rows after this time")

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
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:
            raise ValueError(f"{args.command}: unrecognized arguments: {' '.join(extra)}")
        # looked up per call, so a cmd_* replaced after the parser was built still runs
        globals()[f"cmd_{args.command}"](args)
    except SchemeDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
