import subprocess
import sys
from fractions import Fraction as F

import pytest

from takagiqv import gridscan
from takagiqv.extrema import SEED_LEVEL, grid_extrema, grid_oscillation, jacobsthal, max_value, maximizers
from takagiqv.qfield import Dyadic, QuadValue
from takagiqv.schemes import BUILTIN_NAMES, Explicit, SchemeDepthError, parse_scheme
from takagiqv.takagi import TakagiFunction

from conftest import oracle_grid_extrema, oracle_partial, thetas_reads


def fn(spec):
    return TakagiFunction(parse_scheme(spec))


class TestClosedForms:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (4, 5), (10, 341)])
    def test_jacobsthal(self, n, expected):
        assert jacobsthal(n) == expected

    def test_jacobsthal_formula(self):
        for n in range(1, 40):
            assert 3 * jacobsthal(n) == (1 << n) - (-1) ** n

    @pytest.mark.parametrize(
        "n,lo,hi",
        [(1, Dyadic(1, 1), Dyadic(1, 1)), (2, Dyadic(1, 2), Dyadic(3, 2)), (4, Dyadic(5, 4), Dyadic(11, 4))],
    )
    def test_maximizers(self, n, lo, hi):
        assert maximizers(n) == (lo, hi)

    def test_maximizer_recursion(self):
        # t_{n+1} = t_n + (-1)**n 2**-(n+1)
        for n in range(1, 25):
            t_n = maximizers(n)[0].as_fraction()
            t_next = maximizers(n + 1)[0].as_fraction()
            assert t_next == t_n + F((-1) ** n, 1 << (n + 1))

    def test_max_value_small(self):
        assert max_value(1) == QuadValue(F(1, 2), 0)
        assert max_value(2) == QuadValue(F(1, 4), F(1, 4))

    def test_max_value_limit(self):
        peak = QuadValue(F(2, 3), F(1, 3))
        gap = abs(max_value(40) - peak)
        assert gap.compare(F(1, 10 ** 5)) < 0

    def test_validation(self):
        for f in (jacobsthal, maximizers, max_value):
            with pytest.raises(ValueError):
                f(0)


class TestGridScan:
    def test_all_plus_level_4(self):
        rep = grid_extrema(fn("all_plus"), 4)
        assert rep.max == max_value(4)
        assert rep.argmax == [Dyadic(5, 4), Dyadic(11, 4)]

    def test_all_plus_level_1(self):
        rep = grid_extrema(fn("all_plus"), 1)
        assert rep.max == QuadValue(F(1, 2), 0)
        assert rep.argmax == [Dyadic(1, 1)]
        assert rep.min == QuadValue(0, 0)
        assert rep.argmin == [Dyadic(0, 0), Dyadic(1, 0)]

    @pytest.mark.parametrize("level", range(1, 13))
    def test_all_plus_matches_closed_form(self, level):
        rep = grid_extrema(fn("all_plus"), level)
        assert rep.max == max_value(level)
        lo, hi = maximizers(level)
        assert rep.argmax == ([lo] if lo == hi else [lo, hi])

    def test_half_split_minimum(self):
        # min sits at 1/2 + (level maximizer), by the reflection around 1/2
        rep = grid_extrema(fn("half_split"), 4)
        assert rep.min == QuadValue(F(1, 2), 0) - max_value(4)
        reflected = F(1, 2) + maximizers(4)[0].as_fraction()
        assert [d.as_fraction() for d in rep.argmin] == [reflected]
        # cross-check against the Fraction brute-force oracle
        f = fn("half_split")
        values = [oracle_partial(f, 4, F(j, 16)) for j in range(17)]
        assert min(values) == rep.min
        assert max(values) == rep.max

    @pytest.mark.parametrize("level", range(1, 11))
    def test_half_split_oscillation_identity(self, level):
        osc = grid_oscillation(fn("half_split"), level)
        assert osc == max_value(level) * 2 - F(1, 2)

    @pytest.mark.parametrize("spec", ["alt_m", "alt_mk", "block:5", "bernoulli:1/2:1", "neg_half_split"])
    def test_dominated_by_closed_form_max(self, spec):
        for level in (3, 6, 9):
            rep = grid_extrema(fn(spec), level)
            assert rep.max.compare(max_value(level)) <= 0
            assert rep.oscillation == rep.max - rep.min

    def test_oscillation_monotone_in_level(self):
        f = fn("bernoulli:1/2:4")
        oscs = [grid_oscillation(f, level) for level in range(1, 9)]
        for a, b in zip(oscs, oscs[1:]):
            assert a.compare(b) <= 0

    def test_level_validation(self):
        with pytest.raises(ValueError):
            grid_extrema(fn("all_plus"), 0)
        with pytest.raises(ValueError, match=r"\[0, 26\]"):
            grid_extrema(fn("all_plus"), 27)

    @pytest.mark.parametrize("spec", ["half_split", "neg_half_split", "alt_mk", "bernoulli:1/3:7"])
    def test_deep_grid_caches_no_whole_row(self, spec, monkeypatch):
        f = fn(spec)
        reads = thetas_reads(monkeypatch, f.scheme)
        rep = grid_extrema(f, 22)
        sizes = [(m, len(k)) for m, k in reads]
        # the seed grid reads its generations whole, once; deeper ones are read
        # once each, at the alive cells alone, far fewer than one seed row in all
        assert sizes[:SEED_LEVEL] == [(m, 1 << m) for m in range(SEED_LEVEL)]
        assert [m for m, _ in sizes[SEED_LEVEL:]] == list(range(SEED_LEVEL, 22))
        assert sum(n for _, n in sizes[SEED_LEVEL:]) < 1 << SEED_LEVEL
        assert rep.max.compare(max_value(22)) <= 0

    @pytest.mark.parametrize("spec", BUILTIN_NAMES)
    def test_whole_grid_is_the_seed_of_the_search(self, spec, monkeypatch):
        """Up to SEED_LEVEL the search is its seed grid alone: no scan of gridscan runs."""
        def fail(*args):
            raise AssertionError("grid_extrema scanned its grid")

        monkeypatch.setattr(gridscan, "block_extrema", fail)
        monkeypatch.setattr(gridscan, "_float_candidates", fail)
        f = fn(spec)
        for level in range(1, SEED_LEVEL + 1):
            assert grid_extrema(f, level) == oracle_grid_extrema(f, level)

    def test_no_library_module_imports_gridscan(self):
        code = "import sys, takagiqv, takagiqv.cli; sys.exit('takagiqv.gridscan' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0

    @pytest.mark.parametrize("depth", [3, 11])
    def test_explicit_depth_error_names_the_first_missing_generation(self, depth):
        table = {(m, k): 1 for m in range(depth) for k in range(1 << m)}
        with pytest.raises(SchemeDepthError, match=f"generation {depth} beyond explicit depth {depth}"):
            grid_extrema(TakagiFunction(Explicit(table, depth)), 12)
