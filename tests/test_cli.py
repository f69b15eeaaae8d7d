import argparse
import csv
import io
import json
import math
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from takagiqv import cli
from takagiqv.cli import DIGITS_CAP, SERIES_FIELDS, WITNESS_LEVEL_CAP, _emit, _pair_rows, _reduced, build_parser, main
from takagiqv.follmer import RationalPolynomial, follmer_sum, ito_residual
from takagiqv.modulus import SWEEP_LEVEL_CAP
from takagiqv.qfield import QuadValue
from takagiqv.schemes import parse_scheme
from takagiqv.takagi import TakagiFunction

from conftest import oracle_omega


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_exact_dyadic(self, capsys):
        code, out, _ = run(capsys, "eval", "--scheme", "all_plus", "--t", "5/16")
        assert code == 0
        assert "value: 7/16 + 5/16*sqrt(2)" in out
        assert "decimal: 0.879441738242" in out

    def test_thirds_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--scheme", "all_plus", "--t", "1/3")
        assert code == 0
        assert "value: 2/3 + 1/3*sqrt(2)" in out

    def test_generic_rational_uses_tail_bound(self, capsys):
        code, out, _ = run(capsys, "eval", "--scheme", "alt_m", "--t", "1/5")
        assert code == 0
        assert "tail_bound:" in out

    def test_decimal_input_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "--scheme", "all_plus", "--t", "0.5")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ("--t", "1/3", "--tol", "0.5"),
        ("--t", "1/5", "--tol", "1e-3"),
        ("--t", "1/2", "--scheme", "bernoulli:1/2:99999999999999999999999"),
        ("--t", "1/2", "--scheme", "bernoulli:1/2", "--seed", str(-(2**63) - 1)),
    ])
    def test_inexact_tol_and_seed_out_of_range(self, capsys, argv):
        code, _, err = run(capsys, "eval", *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_seed_out_of_range_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "takagiqv.cli", "sample", "--grid", "2",
             "--scheme", "bernoulli:1/2:99999999999999999999999"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_unknown_scheme(self, capsys):
        code, _, err = run(capsys, "eval", "--scheme", "nonsense", "--t", "1/2")
        assert code == 2
        assert "error:" in err


class TestSample:
    def test_row_count_and_determinism(self, capsys):
        code, first, _ = run(capsys, "sample", "--scheme", "bernoulli:1/4:42", "--grid", "10")
        assert code == 0
        lines = first.strip().split("\n")
        assert lines[0] == "t,value_decimal,value_a,value_b"
        assert len(lines) == 1 + 1025
        code, second, _ = run(capsys, "sample", "--scheme", "bernoulli:1/4:42", "--grid", "10")
        assert second == first

    def test_decimal_column_reparses(self, capsys):
        _, out, _ = run(capsys, "sample", "--scheme", "half_split", "--grid", "6")
        for line in out.strip().split("\n")[1:]:
            _, dec, a, b = line.split(",")
            exact = float(F(a)) + float(F(b)) * math.sqrt(2)
            assert abs(float(dec) - exact) < 1e-8

    def test_seed_flag_completes_bernoulli(self, capsys):
        _, with_flag, _ = run(capsys, "sample", "--scheme", "bernoulli:1/2", "--seed", "9", "--grid", "4")
        _, inline, _ = run(capsys, "sample", "--scheme", "bernoulli:1/2:9", "--grid", "4")
        assert with_flag == inline


class TestSeriesCommands:
    def test_qv_schema(self, capsys):
        code, out, _ = run(capsys, "qv", "--scheme", "all_plus", "--level", "6", "--stride", "16")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "level,t_num,t_den,value_a_num,value_a_den,value_b_num,value_b_den,value_decimal"
        )
        assert len(lines) == 1 + 5
        last = lines[-1].split(",")
        assert last[:7] == ["6", "1", "1", "63", "64", "0", "1"]

    def test_qv_json(self, capsys):
        code, out, _ = run(capsys, "qv", "--scheme", "all_plus", "--level", "4", "--format", "json")
        rows = json.loads(out)
        assert rows[-1]["value_a_num"] == 15
        assert rows[-1]["value_a_den"] == 16

    def test_cov_levels(self, capsys):
        code, out, _ = run(capsys, "cov", "--scheme", "all_plus", "--level", "3", "--t", "1")
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[2].split(",")[3:5] == ["-1", "4"]
        assert lines[3].split(",")[3:5] == ["3", "8"]

    def test_counterexample_final_distance(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--levels", "12", "--t", "1")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        even_cov = [r for r in rows if r[8] == "even_cov"]
        assert float(even_cov[-1][9]) < 1e-3

    def test_counterexample_t_off_grid(self, capsys):
        code, _, err = run(capsys, "counterexample", "--levels", "8", "--t", "1/3")
        assert code == 2

    def test_witness_rows(self, capsys):
        code, out, _ = run(capsys, "witness", "--levels", "12")
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 24
        kinds = {ln.split(",")[8] for ln in lines[1:]}
        assert kinds == {"part_a", "part_b"}

    def test_modulus_single_step(self, capsys):
        code, out, _ = run(capsys, "modulus", "--scheme", "all_plus", "--grid", "8", "--h", "1/256")
        lines = out.strip().split("\n")
        assert len(lines) == 2
        rec = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert rec["h_den"] == "256"
        assert float(rec["ratio_decimal"]) <= 1.0

    @pytest.mark.parametrize("argv", [
        ("--grid", "5"),
        ("--scheme", "neg_half_split", "--grid", "6"),
        ("--scheme", "bernoulli:1/3:9", "--grid", "4", "--format", "json"),
        ("--scheme", "alt_mk", "--grid", "16", "--h", "37/65536"),
        ("--grid", "12", "--h", "1"),
    ])
    def test_modulus_columns_match_definitions(self, capsys, argv):
        code, out, _ = run(capsys, "modulus", *argv)
        assert code == 0
        recs = json.loads(out) if "json" in argv else list(csv.DictReader(io.StringIO(out)))
        for rec in recs:
            num, den = int(rec["h_num"]), int(rec["h_den"])
            assert math.gcd(num, den) == 1
            h, n = F(num, den), int(rec["nu"])
            x = QuadValue(F(int(rec["value_a_num"]), int(rec["value_a_den"])),
                          F(int(rec["value_b_num"]), int(rec["value_b_den"])))
            assert F(1, 2 << n) < h <= F(1, 1 << n)
            assert rec["omega_decimal"] == oracle_omega(h).decimal(12)
            assert rec["ratio_decimal"] == (x / oracle_omega(h)).decimal(8)

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_modulus_ignores_takagi_threads(self, capsys, monkeypatch, value):
        argv = ("modulus", "--grid", "4", "--h", "1/16")
        code, unset, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("TAKAGI_THREADS", value)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, unset, "")

    def test_ito_profile(self, capsys):
        code, out, _ = run(capsys, "ito", "--scheme", "all_plus", "--poly", "0,0,1", "--levels", "8")
        lines = out.strip().split("\n")
        assert len(lines) == 9
        final = lines[-1].split(",")
        assert final[3:5] == ["-1", "256"]
        # f = u**2 and x(0) = x(1) = 0: the Riemann sum of 2x dx is -(1 - 2**-n)
        for line in lines[1:]:
            n, rsum = int(line.split(",")[0]), line.split(",")[-1]
            assert rsum == QuadValue(F(1, 1 << n) - 1, 0).decimal(12)

    def test_ito_riemann_sum_column(self, capsys):
        code, out, _ = run(capsys, "ito", "--scheme", "alt_m", "--poly", "1,0,-1/2,2", "--level", "7")
        assert code == 0
        fn = TakagiFunction(parse_scheme("alt_m"))
        poly = RationalPolynomial.parse("1,0,-1/2,2")
        row = out.strip().split("\n")[-1].split(",")
        assert row[7] == ito_residual(poly, fn, 7, 1).decimal(12)
        assert row[-1] == follmer_sum(poly.derivative(), fn, 7, 1).decimal(12)

    def test_ito_requires_level(self, capsys):
        code, out, err = run(capsys, "ito", "--scheme", "all_plus", "--poly", "0,0,1")
        assert (code, out) == (2, "")
        assert err == "error: ito needs exactly one of --level and --levels\n"

    def test_ito_profile_rows_match_single_levels(self, capsys):
        code, out, _ = run(capsys, "ito", "--scheme", "alt_mk", "--poly", "0,1,-1/2,1", "--levels", "10")
        assert code == 0
        header, *rows = out.strip().split("\n")
        assert len(rows) == 10
        for n, row in enumerate(rows, 1):
            code, single, _ = run(capsys, "ito", "--scheme", "alt_mk", "--poly", "0,1,-1/2,1",
                                  "--level", str(n))
            assert code == 0 and single.strip().split("\n") == [header, row]


#: Numerators for the reduced-fraction columns: zero, odd, even, negative,
#: and beyond the 2**53 that a float holds exactly.
NUMERATORS = [0, 1, 3, -5, 6, -12, 40, 1 << 40, (1 << 53) + 1, 3 << 53, -(1 << 60), (1 << 62) - 1]


@pytest.mark.filterwarnings("error")
class TestRowWriter:
    @pytest.mark.parametrize("bits", [0, 1, 5, 30, 52, 62])
    def test_reduced_columns(self, bits):
        nums, dens = _reduced(NUMERATORS, bits)
        for x, n, d in zip(NUMERATORS, nums, dens):
            want = F(x, 1 << bits)
            assert (n, d) == (want.numerator, want.denominator)
            assert type(n) is int and type(d) is int

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bits", [0, 3, 62])
    def test_series_columns(self, capsys, fmt, bits):
        p = NUMERATORS
        q = NUMERATORS[::-1]
        t_num = list(range(len(p)))
        args = argparse.Namespace(format=fmt, out=None)
        _emit(_pair_rows(7, t_num, 4, p, q, bits), list(SERIES_FIELDS), args)
        out = capsys.readouterr().out
        records = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        assert len(records) == len(p)
        for rec, j, a, b in zip(records, t_num, p, q):
            got = {k: F(int(rec[f"{k}_num"]), int(rec[f"{k}_den"])) for k in ("t", "value_a", "value_b")}
            assert got == {"t": F(j, 16), "value_a": F(a, 1 << bits), "value_b": F(b, 1 << bits)}
            for k in ("t", "value_a", "value_b"):
                # lowest terms, as Fraction prints them
                assert int(rec[f"{k}_den"]) == got[k].denominator
            assert int(rec["level"]) == 7
            value = QuadValue(F(a, 1 << bits), F(b, 1 << bits))
            assert rec["value_decimal"] == value.decimal(12)
        if fmt == "json":
            assert all(type(rec["value_a_num"]) is int for rec in records)


#: ``extrema --grid 6``, byte for byte: the maximum is attained twice and
#: the minimum at both ends.
EXTREMA_GRID_6 = """\
{
  "level": 6,
  "max": "35/64 + 21/64*sqrt(2)",
  "max_decimal": "1.010913825154",
  "argmax": [
    "21/64",
    "43/64"
  ],
  "min": "0",
  "min_decimal": "0.000000000000",
  "argmin": [
    "0",
    "1"
  ],
  "oscillation": "35/64 + 21/64*sqrt(2)",
  "oscillation_decimal": "1.010913825154"
}
"""


class TestFilesAndExitCodes:
    def test_extrema_golden(self, tmp_path, capsys):
        code, out, _ = run(capsys, "extrema", "--grid", "6")
        assert (code, out) == (0, EXTREMA_GRID_6)
        target = tmp_path / "extrema.json"
        code, out, _ = run(capsys, "extrema", "--grid", "6", "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == EXTREMA_GRID_6.encode()

    def test_eval_out_writes_what_eval_prints(self, tmp_path, capsys):
        target = tmp_path / "eval.txt"
        code, printed, _ = run(capsys, "eval", "--t", "1/3")
        assert code == 0 and printed.startswith("scheme: all_plus\n")
        code, out, _ = run(capsys, "eval", "--t", "1/3", "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text() == printed

    def test_out_file_golden(self, tmp_path, capsys):
        target = tmp_path / "a.csv"
        again = tmp_path / "b.csv"
        for path in (target, again):
            code = main(["qv", "--scheme", "bernoulli:1/2:3", "--level", "8",
                         "--stride", "32", "--out", str(path)])
            assert code == 0
        assert target.read_bytes() == again.read_bytes()

    def test_scheme_file_depth_exit_code(self, tmp_path, capsys):
        lines = ["depth 2", "0 0 +1", "1 0 +1", "1 1 -1"]
        path = tmp_path / "scheme.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "eval", "--scheme", f"file:{path}", "--t", "1/4")
        assert code == 0
        code, _, err = run(capsys, "eval", "--scheme", f"file:{path}", "--t", "1/16")
        assert code == 3
        code, _, err = run(capsys, "sample", "--scheme", f"file:{path}", "--grid", "5")
        assert code == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "--scheme", "file:/no/such/file", "--t", "1/2")
        assert code == 2


#: Scheme files that Explicit.load must reject, by placeholder name.
BAD_SCHEME_FILES = {
    "dup": "depth 2\n0 0 +1\n1 0 +1\n1 1 -1\n1 1 +1\n",
    "deep": "depth 2\n0 0 +1\n1 0 +1\n1 1 -1\n2 0 +1\n",
    "wide": "depth 2\n0 0 +1\n1 0 +1\n1 1 -1\n1 2 -1\n",
    "bare": "depth\n0 0 +1\n",
    "short": "depth 2\n0 0 +1\n1 0 +1\n1 1 -1\n",  # valid, queried too deep
}

#: (argv, exit code): every subcommand with inputs it must refuse.
MALFORMED = [
    ("eval --t 1/0", 2),
    ("eval --t 0.5", 2),
    ("eval --t 3/2", 2),
    ("eval --t 1/5 --tol 1/0", 2),
    ("eval --t 1/7 --tol 0", 2),
    (f"eval --t 1/7 --tol 1/{10**1001}", 2),
    ("eval --t 1/2 --scheme bernoulli:1/0:3", 2),
    ("eval --t 1/2 --scheme file:{dup}", 2),
    ("eval --t 1/16 --scheme file:{short}", 3),
    ("eval --t 1/3 --digits 0", 2),
    ("eval --t 1/7 --digits -1", 2),
    ("eval --t 1/3 --out {missing}", 2),
    ("sample --grid 40", 2),
    ("sample", 2),
    ("sample --grid -1", 2),
    ("sample --grid 3 --scheme file:{deep}", 2),
    ("sample --grid 5 --scheme file:{short}", 3),
    ("extrema --grid 27", 2),
    ("extrema --grid 0", 2),
    ("extrema --grid -1", 2),
    ("extrema --grid 3 --scheme file:{bare}", 2),
    ("qv --level 4 --t 1/0", 2),
    ("qv --level 27", 2),
    ("qv --level x", 2),
    ("qv --level -1", 2),
    ("qv --level 4 --stride 3", 2),
    ("qv --level 3 --stride 0 --t 1/2", 2),
    ("qv --level 3 --scheme file:{wide}", 2),
    ("qv --level 3 --t -1", 2),
    ("qv --level 3 --t 5", 2),
    ("cov --level 4 --t 1/0", 2),
    ("cov --level 30", 2),
    ("cov --level -1", 2),
    ("cov --level 4 --scheme-y nonsense", 2),
    ("cov --level 0", 2),
    ("counterexample --levels 4 --t 1/0", 2),
    ("counterexample --levels 40", 2),
    ("counterexample --levels -1", 2),
    ("counterexample --levels 2 --t 1/8", 2),
    ("counterexample --levels 0", 2),
    ("modulus --grid 4 --h 1/0", 2),
    ("modulus --grid 4 --h 2", 2),
    ("modulus --grid 27 --h 1/2", 2),
    ("modulus --grid 27", 2),
    ("modulus --grid 15", 2),
    ("modulus --grid 26", 2),
    ("modulus --grid -1 --h 1/2", 2),
    ("modulus --grid 4 --h 1/4 --scheme file:{dup}", 2),
    ("witness --levels 3 --out {missing}", 2),
    ("witness --levels -1", 2),
    ("witness --levels 100000", 2),
    ("witness --seed 3", 2),
    ("ito --poly 1/0 --level 3", 2),
    ("ito --poly= --level 3", 2),
    ("ito --poly 1,x --level 3", 2),
    ("ito --poly 0,1 --level 40", 2),
    ("ito --poly 0,1 --levels 40", 2),
    ("ito --poly 0,1 --level -1", 2),
    ("ito --poly 0,1 --levels -1", 2),
    ("ito --poly 0,1e4000000 --level 3", 2),
    ("ito --poly 0,1 --level 3 --t 1/3", 2),
    ("ito --poly 0,0,1 --level 4 --scheme bernoulli:1/0:3", 2),
    ("ito --poly 0,1", 2),
    ("ito --poly 0,1 --level 3 --levels 4", 2),
    ("ito --poly 0,0,1 --levels 2 --t 1/8", 2),
    ("ito --poly 0,0,1 --levels 0", 2),
]

#: One case per subcommand, run in a fresh interpreter.
SUBPROCESS = [
    "eval --t 1/0",
    "sample --grid 3 --scheme file:{deep}",
    "extrema --grid 3 --scheme file:{bare}",
    "qv --level 4 --t 1/0",
    "cov --level 30",
    "counterexample --levels 40",
    "modulus --grid 4 --h 1/0",
    "witness --levels 3 --out {missing}",
    "witness --levels 100000",
    "ito --poly 1/0 --level 3",
]


@pytest.fixture
def scheme_files(tmp_path):
    paths = {"missing": str(tmp_path / "no" / "such" / "dir.csv")}
    for name, text in BAD_SCHEME_FILES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _assert_one_error_line(err):
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1, err


class TestMalformedInput:
    @pytest.mark.parametrize("argv,expected", MALFORMED)
    def test_exit_code_and_one_error_line(self, capsys, scheme_files, argv, expected):
        code, out, err = run(capsys, *argv.format(**scheme_files).split())
        assert code == expected
        assert out == ""
        _assert_one_error_line(err)

    @pytest.mark.parametrize(
        "argv,option",
        [
            ("sample --grid -1", "--grid"),
            ("extrema --grid 27", "--grid"),
            ("extrema --grid 0", "--grid"),
            ("qv --level -1", "--level"),
            ("cov --level 27", "--level"),
            ("counterexample --levels -1", "--levels"),
            ("modulus --grid -1 --h 1/2", "--grid"),
            ("ito --poly 0,1 --level -1", "--level"),
            ("ito --poly 0,1 --levels 27", "--levels"),
        ],
    )
    def test_level_error_names_option_and_range(self, capsys, argv, option):
        code, _, err = run(capsys, *argv.split())
        assert code == 2
        lo = 1 if argv.startswith("extrema") else 0  # the extrema search needs one grid interval
        assert err.startswith(f"error: {option} must be in [{lo}, 26], got ")

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("cov --level 0", "--level 0 below the first level 1 carrying t=1"),
            ("cov --level 2 --t 1/8", "--level 2 below the first level 3 carrying t=1/8"),
            ("counterexample --levels 0", "--levels 0 below the first level 1 carrying t=1"),
            ("counterexample --levels 2 --t 1/8", "--levels 2 below the first level 3 carrying t=1/8"),
            ("ito --poly 0,0,1 --levels 0", "--levels 0 below the first level 1 carrying t=1"),
            ("ito --poly 0,0,1 --levels 2 --t 1/8", "--levels 2 below the first level 3 carrying t=1/8"),
        ],
    )
    def test_level_below_t_names_option(self, capsys, argv, message):
        code, _, err = run(capsys, *argv.split())
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("witness --seed 3", "witness: unrecognized arguments: --seed 3"),
            ("eval --t 1/3 --format json", "eval: unrecognized arguments: --format json"),
            ("qv --level x", "qv: argument --level: invalid int value: 'x'"),
            ("sample", "sample: the following arguments are required: --grid"),
            ("", "the following arguments are required: command"),
        ],
    )
    def test_argparse_refusal_names_subcommand(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: takagiqv witness [-h]")

    def test_long_poly_exponent_exits_quickly(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "ito", "--poly=0,1e4000000", "--level", "3")
        assert code == 2 and "exponent" in err
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("levels", [0, WITNESS_LEVEL_CAP + 1, 100000])
    def test_witness_levels_refused_quickly(self, capsys, levels):
        start = time.perf_counter()
        code, out, err = run(capsys, "witness", "--levels", str(levels))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: --levels must be in [1, {WITNESS_LEVEL_CAP}], got {levels}\n"

    @pytest.mark.parametrize("grid", [SWEEP_LEVEL_CAP + 1, 26])
    def test_modulus_sweep_refused_quickly(self, capsys, monkeypatch, grid):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(TakagiFunction, "grid_pairs", no_grid)
        start = time.perf_counter()
        code, out, err = run(capsys, "modulus", "--grid", str(grid))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--h" in err and str(SWEEP_LEVEL_CAP) in err

    @pytest.mark.parametrize("digits", [0, DIGITS_CAP + 1, 300000])
    def test_eval_digits_refused_quickly(self, capsys, digits):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--t", "1/3", "--digits", str(digits))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: --digits must be in [1, {DIGITS_CAP}], got {digits}\n"

    def test_eval_tol_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "eval", "--t", "1/7", "--tol", f"1/{10**DIGITS_CAP}")
        assert code == 0
        assert "tail_bound: " in out

    def test_eval_digits_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "eval", "--t", "1/3", "--digits", str(DIGITS_CAP))
        assert code == 0
        assert len(out.split("decimal: ")[1].split("\n")[0].split(".")[1]) == DIGITS_CAP

    def test_every_subcommand_covered(self):
        commands = set(build_parser()._subparsers._group_actions[0].choices)
        assert {argv.split()[0] for argv, _ in MALFORMED} == commands
        assert {argv.split()[0] for argv in SUBPROCESS} == commands

    @pytest.mark.parametrize("argv", SUBPROCESS)
    def test_subprocess_has_no_traceback(self, scheme_files, argv):
        expected = dict(MALFORMED)[argv]
        proc = subprocess.run(
            [sys.executable, "-m", "takagiqv.cli", *argv.format(**scheme_files).split()],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == expected
        _assert_one_error_line(proc.stderr)


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def smoke_lines() -> list:
    """Each ``takagiqv`` line of the CI smoke step as (argv, exit code): 2 where the next
    line tests for it, 0 otherwise."""
    lines = [line.strip() for line in WORKFLOW.read_text().splitlines()]
    return [pytest.param(shlex.split(line)[1:], 2 if after.startswith("test $? -eq 2") else 0, id=line[9:] if len(line) < 120 else line[9:40] + "...")
            for line, after in zip(lines, lines[1:] + [""]) if line.startswith("takagiqv ")]


class TestSmokeLines:
    """The CI smoke step, run through ``main``, so that a stale line fails here too."""

    @pytest.mark.parametrize("argv,expected", smoke_lines())
    def test_exit_code(self, capsys, argv, expected):
        assert main(argv) == expected
        capsys.readouterr()

    def test_both_outcomes_present(self):
        assert {param.values[1] for param in smoke_lines()} == {0, 2}


def _outcome(capsys, argv, path):
    """(exit code, stdout, stderr, bytes written to path) of one main call."""
    code = main(argv)
    out = capsys.readouterr()
    written = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    return code, out.out, out.err, written


class TestParseOnce:
    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["eval", "--t", "1/3"]) == 0
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert built == [1]

    def test_replaced_command_runs(self, capsys, monkeypatch):
        assert main(["witness", "--levels", "2"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_witness", seen.append)
        assert main(["witness", "--levels", "2"]) == 0
        assert [args.levels for args in seen] == [2]
        capsys.readouterr()

    def test_shared_parser_leaks_no_state(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        calls = [
            ["qv", "--level", "4", "--stride", "2", "--format", "json"],
            ["qv", "--level", "4", "--stride", "2"],
            ["sample", "--grid", "3", "--scheme", "alt_m", "--out", str(path)],
            ["sample", "--grid", "-1"],
            ["sample", "--scheme", "alt_m"],
            ["modulus", "--grid", "3"],
            ["qv", "--level", "4", "--stride", "2"],
        ]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(_outcome(capsys, argv, path))
        shared = [_outcome(capsys, argv, path) for argv in calls]
        assert shared == fresh
        codes = [code for code, *_ in fresh]
        assert codes == [0, 0, 0, 2, 2, 0, 0]
        assert fresh[2][1] == "" and fresh[2][3].startswith(b"t,value_decimal")
        assert json.loads(fresh[0][1])[-1]["t_num"] == 1


#: The options each subcommand offers, besides -h.
OPTIONS = {
    "eval": ["--scheme", "--seed", "--out", "--t", "--tol", "--digits"],
    "sample": ["--scheme", "--seed", "--out", "--format", "--grid"],
    "extrema": ["--scheme", "--seed", "--out", "--grid"],
    "qv": ["--scheme", "--seed", "--out", "--format", "--level", "--stride", "--t"],
    "cov": ["--scheme", "--seed", "--out", "--format", "--scheme-y", "--level", "--t"],
    "counterexample": ["--out", "--format", "--levels", "--t"],
    "modulus": ["--scheme", "--seed", "--out", "--format", "--grid", "--h"],
    "witness": ["--out", "--format", "--levels"],
    "ito": ["--scheme", "--seed", "--out", "--format", "--poly", "--level", "--levels", "--t"],
}

#: One command line per subcommand whose run reads every option it offers:
#: a bernoulli spec without a seed reads --seed.
EVERY_OPTION = {
    "eval": "eval --scheme bernoulli:1/2 --t 1/5 --tol 1/1000 --digits 5",
    "sample": "sample --scheme bernoulli:1/2 --grid 3",
    "extrema": "extrema --scheme bernoulli:1/2 --grid 3",
    "qv": "qv --scheme bernoulli:1/2 --level 4 --stride 2 --t 1/2",
    "cov": "cov --scheme bernoulli:1/2 --scheme-y alt_m --level 4",
    "counterexample": "counterexample --levels 3",
    "modulus": "modulus --scheme bernoulli:1/2 --grid 3 --h 1/8",
    "witness": "witness --levels 2",
    "ito": "ito --scheme bernoulli:1/2 --poly 0,1 --levels 3",
}


class _Reads:
    """A parsed command line that records the attributes a command reads."""

    def __init__(self, args):
        self.values, self.read = vars(args), set()

    def __getattr__(self, name):
        self.read.add(name)
        return self.values[name]


def _subparsers():
    return build_parser()._subparsers._group_actions[0].choices


class TestOptions:
    def test_options_per_subcommand(self):
        offered = {name: [opt for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")]
                   for name, p in _subparsers().items()}
        assert offered == OPTIONS
        assert sum(map(len, offered.values())) == 50

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_every_option_is_read(self, capsys, command):
        subparser = _subparsers()[command]
        args = _Reads(build_parser().parse_args(EVERY_OPTION[command].split()))
        getattr(cli, f"cmd_{command}")(args)
        capsys.readouterr()
        assert args.read == {a.dest for a in subparser._actions if a.option_strings and a.dest != "help"}

    @pytest.mark.parametrize("argv", [
        "eval --t 1/3 --format json",
        "extrema --grid 3 --format csv",
        "witness --levels 3 --seed 3",
        "counterexample --levels 3 --seed 3",
    ])
    def test_unread_options_refused(self, capsys, tmp_path, argv):
        code, out, err, _ = _outcome(capsys, argv.split(), tmp_path / "out")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: " in err
