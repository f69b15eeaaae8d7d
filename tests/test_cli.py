import argparse
import contextlib
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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from takagiqv import cli
from takagiqv import modulus
from takagiqv import qfield
from takagiqv import takagi
from takagiqv.cli import (
    DECIMAL, DIGITS_CAP, ITO_BUDGET, ROW_BUDGET, SERIES_FIELDS, WITNESS_LEVEL_CAP, _emit, _ito_work, _pair_columns,
    _reduced, _series, build_parser, main,
)
from takagiqv.follmer import RationalPolynomial, follmer_sum, ito_residual
from takagiqv.modulus import SWEEP_LEVEL_CAP, _omega_pair, sweep_all_steps
from takagiqv.qfield import QuadValue, decimal_column, decimal_pair, decimal_ratio
from takagiqv.schemes import parse_scheme
from takagiqv.takagi import TakagiFunction

from conftest import oracle_grid_pairs, oracle_omega


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

    @staticmethod
    def assert_streamed(capsys, spec, level):
        """sample in both formats against rows built one by one from the oracle grid: 2**level + 1
        rows, so the endpoint two blocks share is written once."""
        p, q = oracle_grid_pairs(TakagiFunction(parse_scheme(spec)), level)
        d = 1 << level
        names = ("t", "value_decimal", "value_a", "value_b")
        rows = [(str(F(j, d)), decimal_pair(a, b, d, 12), str(F(a, d)), str(F(b, d)))
                for j, (a, b) in enumerate(zip(p.tolist(), q.tolist()))]
        csv_text = ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in rows)
        json_text = json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"
        for fmt, expected in (("csv", csv_text), ("json", json_text)):
            code, out, err = run(capsys, "sample", "--scheme", spec, "--grid", str(level), "--format", fmt)
            assert (code, err, out.count("\n")) == (0, "", expected.count("\n"))
            # compared line by line: a failing comparison of the whole texts takes pytest minutes to explain
            diff = next((i for i, (a, b) in enumerate(zip(out.split("\n"), expected.split("\n"))) if a != b), None)
            assert diff is None, (fmt, diff, out.split("\n")[diff], expected.split("\n")[diff])

    def test_streams_two_blocks(self, capsys):
        assert takagi.block_bits(17) == 16
        self.assert_streamed(capsys, "alt_mk", 17)

    @pytest.mark.parametrize("block", [2, 8])
    def test_streams_small_blocks(self, capsys, monkeypatch, block):
        monkeypatch.setattr(takagi, "BLOCK", block)
        for level in range(9):
            self.assert_streamed(capsys, ["half_split", "bernoulli:1/3:7", "alt_mk"][level % 3], level)


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
        _emit(_series(DECIMAL), [_pair_columns(7, np.array(t_num), 4, np.array(p), np.array(q), bits)], args)
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


# int64 entries of every bit length, and the rows the writer treats apart: zero, whole numbers
# (denominator 1), exact 12-digit ties (q == 0, p an odd multiple of 2**(bits - 13)) and |x| >= 2**49
int64s = st.integers(0, 63).flatmap(lambda k: st.integers(-(1 << k), (1 << k) - 1))


def _table_rows(bits):
    whole = st.integers(-(1 << (63 - bits)), (1 << (63 - bits)) - 1).map(lambda m: m << bits)
    large = st.integers(min(1 << (bits + 9), (1 << 63) - 1), (1 << 63) - 1).flatmap(lambda p: st.sampled_from([p, -p]))
    rows = [st.tuples(int64s, int64s), st.tuples(whole, whole), st.just((0, 0)), st.tuples(large, int64s)]
    if bits >= 13:
        half = 1 << (bits - 13)
        rows.append(st.integers(-(1 << (61 - bits + 13)), (1 << (61 - bits + 13)) - 1).map(lambda m: ((2 * m + 1) * half, 0)))
    return st.lists(st.one_of(rows), max_size=30)


tables = st.integers(0, 62).flatmap(lambda bits: st.tuples(st.just(bits), _table_rows(bits), st.integers(0, 30)))


def _emitted(fields, chunks, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(fields, chunks, argparse.Namespace(format=fmt, out=None))
    return out.getvalue()


def _reference(names, rows, fmt):
    """The table as the per-row writer printed it: CSV lines of str cells, or json.dumps of the records."""
    if fmt == "json":
        return json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"
    return "\n".join([",".join(names), *(",".join(map(str, row)) for row in rows)]) + "\n"


class TestTemplateWriter:
    """The one-template writer against a per-row reference, in both formats and across chunk splits."""

    @given(tables)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_series_rows(self, fmt, table):
        bits, rows, cut = table
        p, q = (np.array([r[i] for r in rows], dtype=np.int64) for i in (0, 1))
        t_num = np.arange(len(rows), dtype=np.int64)
        want = [[9, F(j, 32).numerator, F(j, 32).denominator, F(a, 1 << bits).numerator, F(a, 1 << bits).denominator,
                 F(b, 1 << bits).numerator, F(b, 1 << bits).denominator, decimal_pair(a, b, 1 << bits, 12), f"row_{j}"]
                for j, (a, b) in enumerate(rows)]
        chunks = [_pair_columns(9, t_num[part], 5, p[part], q[part], bits) + [[f"row_{j}" for j in t_num[part]]]
                  for part in (slice(0, cut), slice(cut, None))]
        fields = _series(DECIMAL, ("kind", "%s"))
        assert _emitted(fields, chunks, fmt) == _reference([*SERIES_FIELDS, "kind"], want, fmt)

    @given(tables)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fraction_rows(self, fmt, table):
        bits, rows, cut = table
        p, q = (np.array([r[i] for r in rows], dtype=np.int64) for i in (0, 1))
        t_num = np.arange(len(rows), dtype=np.int64) << max(bits - 5, 0)
        want = [[str(F(int(j), 1 << bits)), decimal_pair(a, b, 1 << bits, 12), str(F(a, 1 << bits)), str(F(b, 1 << bits))]
                for j, (a, b) in zip(t_num, rows)]
        chunks = [[*_reduced(t_num[part], bits, True), decimal_column(p[part], q[part], 1 << bits, 12),
                   *_reduced(p[part], bits, True), *_reduced(q[part], bits, True)] for part in (slice(0, cut), slice(cut, None))]
        fields = [("t", "%d%s"), ("value_decimal", DECIMAL), ("value_a", "%d%s"), ("value_b", "%d%s")]
        assert _emitted(fields, chunks, fmt) == _reference([name for name, _ in fields], want, fmt)

    @pytest.mark.parametrize("fmt,text", [("csv", "a,b\n"), ("json", "[]\n")])
    def test_empty_table(self, fmt, text):
        assert _emitted([("a", "%d"), ("b", DECIMAL)], [], fmt) == text
        assert _emitted([("a", "%d"), ("b", DECIMAL)], [[[], ([], {})]], fmt) == text


NAMED_SCHEMES = ["all_plus", "alt_m", "alt_mk", "block:5", "half_split", "neg_half_split"]


class TestSweepColumns:
    @pytest.mark.parametrize("spec", NAMED_SCHEMES + ["bernoulli:1/3:7"])
    def test_omega_and_ratio_are_exact(self, capsys, spec):
        fn = TakagiFunction(parse_scheme(spec))
        for grid in range(1, 13):
            code, out, _ = run(capsys, "modulus", "--scheme", spec, "--grid", str(grid))
            records = list(csv.DictReader(io.StringIO(out)))
            reports = sweep_all_steps(fn, grid)
            assert code == 0 and len(records) == len(reports) == 1 << grid
            for rec, rep in zip(records, reports):
                om = _omega_pair(rep.j, 1 << grid)
                assert rec["omega_decimal"] == decimal_pair(*om, 12)
                assert rec["ratio_decimal"] == decimal_ratio((*rep.pair, 1 << grid), om, 8)

    @pytest.mark.parametrize("spec", NAMED_SCHEMES + ["bernoulli:1/3:7"])
    def test_sweep_rows_mostly_screened(self, capsys, monkeypatch, spec):
        calls = []
        monkeypatch.setattr(qfield, "decimal_pair", lambda *args: calls.append(args) or decimal_pair(*args))
        code, out, _ = run(capsys, "modulus", "--scheme", spec, "--grid", "12")
        assert code == 0 and out.count("\n") == 1 + 4096
        # every exact decimal of the three screened columns, ratios included, goes through decimal_pair
        assert len(calls) < 4096 // 100


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
    ("sample --grid 26", 2),
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
    ("qv --level 26", 2),
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
    ("ito --poly " + ",".join(["1"] * 2000) + " --level 10", 2),
]


def _short_id(value):
    """A parameter id: the long --poly of MALFORMED cut short, every other value as pytest names it."""
    return value[:40] + "..." if isinstance(value, str) and len(value) > 120 else None

#: Every subcommand at small sizes: sample in both formats, a modulus sweep, a
#: searched step and a streamed step.
NO_GRID_COPY = [
    "eval --t 5/16", "eval --t 1/5", "sample --grid 5", "sample --grid 5 --format json",
    "extrema --scheme alt_m --grid 14", "modulus --grid 6", "modulus --scheme half_split --grid 16 --h 255/65536",
    "modulus --grid 12 --h 3/4096", "qv --level 6", "cov --level 5", "counterexample --levels 4",
    "witness --levels 3", "ito --poly 0,0,1 --levels 4",
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
    @pytest.mark.parametrize("argv,expected", MALFORMED, ids=_short_id)
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

        monkeypatch.setattr(TakagiFunction, "_blocks", no_grid)
        start = time.perf_counter()
        code, out, err = run(capsys, "modulus", "--grid", str(grid))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--h" in err and str(SWEEP_LEVEL_CAP) in err

    @pytest.mark.parametrize("argv,rows,option", [
        ("sample --grid 26", (1 << 26) + 1, "--grid"),
        ("sample --grid 23", (1 << 23) + 1, "--grid"),
        ("qv --level 26", (1 << 26) + 1, "--level"),
        ("qv --level 24 --stride 2", (1 << 23) + 1, "--level"),
        ("qv --level 26 --t 1/8", (1 << 23) + 1, "--level"),
    ])
    def test_row_budget_refused_quickly(self, capsys, monkeypatch, argv, rows, option):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(TakagiFunction, "_blocks", no_grid)
        monkeypatch.setattr(cli, "_profile_sums", no_grid)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: {rows} rows exceed the table budget of {ROW_BUDGET}: lower {option}\n"

    @pytest.mark.parametrize("argv", [
        "sample --grid 22", "qv --level 22", "qv --level 26 --stride 16", "qv --level 26 --t 1/16",
        "qv --level 22 --t 1/1024", "qv --level 24 --stride 65536",
        # a stride that does not divide 2**level is refused by the profile, not the budget
        "qv --level 26 --stride 3", "qv --level 26 --stride 0", "qv --level 26 --stride -1",
    ])
    def test_row_budget_at_the_limit(self, capsys, monkeypatch, argv):
        def reached(*args):
            raise ValueError("reached the grid")

        monkeypatch.setattr(TakagiFunction, "_blocks", reached)
        monkeypatch.setattr(cli, "_profile_sums", reached)
        assert run(capsys, *argv.split()) == (2, "", "error: reached the grid\n")

    @pytest.mark.parametrize("flag", ["--level", "--levels"])
    def test_ito_work_refused_quickly(self, capsys, monkeypatch, flag):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(TakagiFunction, "_blocks", no_grid)
        monkeypatch.setattr(cli, "_residual_and_sum", no_grid)
        start = time.perf_counter()
        code, out, err = run(capsys, "ito", "--poly", ",".join(["1"] * 2000), flag, "10")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: ito exceeds its work budget: lower --poly or {flag}\n"

    @pytest.mark.parametrize("argv", [
        "ito --poly 0,0,0,1 --level 26", "ito --poly 0,0,0,1 --levels 26", "ito --poly 0,0,0,1 --levels 22",
        "ito --poly " + ",".join(["1"] * 200) + " --level 10", "ito --poly " + ",".join(["1"] * 100) + " --level 16",
    ], ids=_short_id)
    def test_ito_work_at_the_limit(self, capsys, monkeypatch, argv):
        def reached(*args):
            raise ValueError("reached the kernel")

        monkeypatch.setattr(cli, "_residual_and_sum", reached)
        assert run(capsys, *argv.split()) == (2, "", "error: reached the kernel\n")

    def test_ito_work_counts_points_to_t_and_every_level(self):
        assert _ito_work(3, [26], F(1)) < ITO_BUDGET < _ito_work(1999, [10], F(1))
        assert _ito_work(3, [20], F(1, 4)) < _ito_work(3, [20], F(1)) < _ito_work(3, range(1, 21), F(1))

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

    @pytest.mark.parametrize("argv", NO_GRID_COPY)
    def test_no_command_copies_a_whole_grid(self, capsys, monkeypatch, argv):
        def no_copy(*args):
            raise AssertionError("a whole grid was copied")

        monkeypatch.setattr(TakagiFunction, "grid_pairs", no_copy)
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "") and out

    def test_no_grid_copy_covers_every_command_and_modulus_path(self):
        assert {argv.split()[0] for argv in NO_GRID_COPY} == set(OPTIONS)
        assert modulus._searched(16, 255) and not modulus._searched(12, 3)

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


_LEVELS = st.integers(-3, 40).map(str) | st.sampled_from(["1000", "100000", "x", "2.5", ""])
_TIMES = st.sampled_from(["1", "0", "1/2", "5/16", "1/3", "1/5", "3/2", "-1", "1/0", "0.5", "x", f"1/{1 << 40}"])
_SCHEMES = st.sampled_from(["all_plus", "alt_mk", "block:5", "bernoulli:1/2", "bernoulli:1/3:7", "bernoulli:1/0:3",
                            "block:0", "nonsense", "file:/no/such/scheme.txt"])

#: Values for each option, inside and outside its range.
OPTION_VALUES = {
    "--scheme": _SCHEMES, "--scheme-y": _SCHEMES, "--seed": st.integers(-3, 10**6).map(str) | st.just("x"),
    "--format": st.sampled_from(["csv", "json", "xml"]), "--grid": _LEVELS, "--level": _LEVELS, "--levels": _LEVELS,
    "--stride": _LEVELS, "--digits": _LEVELS, "--t": _TIMES, "--h": _TIMES, "--tol": _TIMES,
    "--poly": st.sampled_from(["0,1", "0,0,0,1", "-3,1/2,7/13", "1/0", "", "1,x", "0,1e4000000", ",".join(["1"] * 2000)])
    | st.lists(st.integers(-9, 9), min_size=1, max_size=300).map(lambda c: ",".join(map(str, c))),
}

#: The options a command line needs, which the property test gives first.
REQUIRED = {"eval": ["--t"], "sample": ["--grid"], "extrema": ["--grid"], "qv": ["--level"], "cov": ["--level"],
            "counterexample": ["--levels"], "modulus": ["--grid"], "witness": [], "ito": ["--poly", "--level"]}


class TestArgvProperty:
    """Any command line of offered options: exit 0, 2 or 3, nothing on stdout after a failure, and one
    error line.  The grid builder and the kernels raise a sentinel, so nothing large runs."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_codes_and_one_error_line(self, tmp_path_factory, data):
        def sentinel(*args):
            raise ValueError("sentinel")

        command = data.draw(st.sampled_from(sorted(OPTIONS)))
        options = REQUIRED[command] + data.draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=4))
        argv = [command]
        for option in options:
            value = str(tmp_path_factory.mktemp("out") / "table") if option == "--out" else data.draw(OPTION_VALUES[option])
            argv.append(f"{option}={value}")
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for owner, name in [(TakagiFunction, "_blocks"), (TakagiFunction, "_partial_pair"),
                                (cli, "_residual_and_sum"), (cli, "_profile_sums"), (cli, "witness_ratios")]:
                mp.setattr(owner, name, sentinel)
            code = main(argv)
        assert code in (0, 2, 3), argv
        if code:
            assert out.getvalue() == "", argv
            _assert_one_error_line(err.getvalue())
        else:
            assert err.getvalue() == "", argv


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
