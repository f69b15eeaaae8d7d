import math
import random
import tracemalloc
from fractions import Fraction as F
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from takagiqv import modulus
from takagiqv.modulus import (
    SWEEP_LEVEL_CAP,
    ModulusReport,
    _nu,
    _omega_pair,
    _searched,
    modulus_scan,
    nu,
    omega,
    sweep_all_steps,
    witness_ratios,
    witness_steps,
)
from takagiqv.qfield import QuadValue, SQRT2, pow2_half, sign_pair
from takagiqv.schemes import BUILTIN_NAMES, parse_scheme
from takagiqv.takagi import TakagiFunction, pair_value, thirds_value

from conftest import _oracle_argmax, oracle_class_increments, oracle_grid_pairs, oracle_modulus_scan, oracle_omega


def fn(spec):
    return TakagiFunction(parse_scheme(spec))


#: Steps in (0, 1]: any a/d, exact powers of two and their neighbours (the
#: nu boundary), and the witness steps 2/(3 * 2**n).
steps = st.one_of(
    st.integers(1, 10 ** 6).flatmap(lambda d: st.integers(1, d).map(lambda a: F(a, d))),
    st.integers(0, 60).map(lambda n: F(1, 1 << n)),
    st.builds(lambda n, k, e: F((1 << k) + e, 1 << (n + k)),
              st.integers(1, 40), st.integers(1, 20), st.sampled_from([-1, 1])),
    st.integers(0, 60).map(lambda n: F(2, 3 << n)),
)


class TestOmegaOracle:
    @settings(max_examples=300, deadline=None)
    @given(steps)
    def test_matches_oracle(self, h):
        assert omega(h) == oracle_omega(h)


class TestNu:
    @pytest.mark.parametrize(
        "h,expected",
        [(F(1, 2), 1), (F(3, 10), 1), (F(1), 0), (F(2, 3), 0), (F(1, 1024), 10), (F(129, 256), 0)],
    )
    def test_values(self, h, expected):
        assert nu(h) == expected

    def test_exact_powers_of_two(self):
        # the floor lands on n exactly at h = 2**-n
        for n in range(0, 30):
            assert nu(F(1, 1 << n)) == n

    def test_characterization(self):
        rng = random.Random(7)
        for _ in range(300):
            h = F(rng.randint(1, 999), rng.randint(1000, 99999))
            n = nu(h)
            assert F(1, 1 << (n + 1)) < h <= F(1, 1 << n)

    @pytest.mark.parametrize("bits", [64, 128, 200])
    def test_characterization_large_and_unreduced(self, bits):
        # _nu takes a/d as it comes: a common factor k, up to 2**40, changes nothing
        rng = random.Random(bits)
        for _ in range(300):
            d = rng.randint(2, 1 << bits)
            e = rng.randint(0, d.bit_length() - 1)
            # a near d / 2**e puts h at or beside a power of two, where nu steps
            a = min(d, max(1, (d >> e) + rng.randint(-1, 1))) if rng.random() < 0.5 else rng.randint(1, d)
            h, k = F(a, d), rng.randint(1, 1 << 40)
            n = nu(h)
            assert F(1, 1 << (n + 1)) < h <= F(1, 1 << n), (a, d)
            assert _nu(a * k, d * k) == _nu(a, d) == n, (a, d, k)

    def test_domain(self):
        for h in (F(0), F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError):
                nu(h)


class TestGridSteps:
    """nu and omega of the grid steps j/2**N, from integers."""

    def test_nu_from_bit_length(self):
        # 2**(m-1) < j <= 2**m for m = (j - 1).bit_length()
        for level in range(12):
            for j in range(1, (1 << level) + 1):
                h, n = F(j, 1 << level), level - (j - 1).bit_length()
                assert nu(h) == _nu(j, 1 << level) == n, (j, level)
                assert F(1, 1 << (n + 1)) < h <= F(1, 1 << n), (j, level)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 1 << n))))
    def test_omega_pair_matches_oracle(self, step):
        level, j = step
        p, q, den = _omega_pair(j, 1 << level)
        assert QuadValue(F(p, den), F(q, den)) == oracle_omega(F(j, 1 << level))

    @pytest.mark.parametrize("level", [0, 1, 4, 7])
    def test_sweep_reports_carry_nu_and_omega(self, level):
        for rep in sweep_all_steps(fn("alt_mk"), level):
            assert rep.nu == nu(rep.h)
            assert rep.omega == oracle_omega(rep.h)


class TestOmega:
    def test_power_of_two_closed_form(self):
        # omega(2**-n) = 2**(-n/2) (10 + 7 sqrt2)/6
        coef = QuadValue(F(10, 6), F(7, 6))
        for n in range(0, 13):
            assert omega(F(1, 1 << n)) == pow2_half(-n) * coef

    def test_half(self):
        assert omega(F(1, 2)) == QuadValue(F(7, 6), F(5, 6))

    def test_ratio_window(self):
        # omega(h)/sqrt(h) oscillates between 2*sqrt(4/3 + sqrt2)
        # and (11 + 7 sqrt2)/6
        lo = 2 * math.sqrt(4 / 3 + math.sqrt(2))
        hi = (11 + 7 * math.sqrt(2)) / 6
        ratios = []
        for n in range(1, 13):
            # the j/8 offsets sample the whole octave; the 1/256 offset sits
            # just past the floor jump, where the ratio peaks
            for off in [F(j, 8) for j in range(8)] + [F(1, 256)]:
                h = F(1, 1 << n) * (1 + off)
                if h > 1:
                    continue
                ratios.append(float(omega(h)) / math.sqrt(float(h)))
        assert min(ratios) >= lo - 1e-9
        assert max(ratios) <= hi + 1e-9
        assert min(ratios) <= lo + 0.02
        assert max(ratios) >= hi - 0.02

    def test_float_cross_check(self):
        rng = random.Random(123)
        checked = 0
        while checked < 1000:
            h = F(rng.randint(1, 9999), rng.randint(10000, 10 ** 6))
            log = -math.log2(h)
            if abs(log - round(log)) < 1e-9:
                continue  # float floor would be unreliable at the jump
            n_float = math.floor(log)
            assert nu(h) == n_float
            om_float = (1 + 2 ** -0.5) * float(h) * 2 ** (n_float / 2) + (
                (math.sqrt(8) + 2) / 3
            ) * 2 ** (-n_float / 2)
            assert abs(float(omega(h)) - om_float) < 1e-10
            checked += 1


class TestScan:
    def test_boundary_step(self):
        rep = modulus_scan(fn("all_plus"), 6, F(1))
        assert rep.scan_max == QuadValue(0, 0)

    def test_report_fields(self):
        rep = modulus_scan(fn("all_plus"), 8, F(1, 32))
        assert isinstance(rep, ModulusReport)
        assert rep.nu == 5
        assert rep.omega == omega(F(1, 32))
        assert rep.scan_max.compare(rep.omega) <= 0
        # the reported witness attains the scan max
        f = fn("all_plus")
        lhs = f.at_dyadic(rep.witness_t + F(1, 32)) - f.at_dyadic(rep.witness_t)
        assert abs(lhs) == rep.scan_max

    def test_step_validation(self):
        with pytest.raises(ValueError):
            modulus_scan(fn("all_plus"), 4, F(1, 32))
        with pytest.raises(ValueError):
            modulus_scan(fn("all_plus"), 4, F(0))

    @pytest.mark.parametrize("level", [SWEEP_LEVEL_CAP + 1, 26, 27])
    def test_sweep_above_cap_refused_before_any_grid(self, monkeypatch, level):
        f = fn("all_plus")

        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(f, "_blocks", no_grid)
        with pytest.raises(ValueError, match=f"above grid {SWEEP_LEVEL_CAP}"):
            sweep_all_steps(f, level)

    def test_all_plus_dominated_by_omega(self):
        for rep in sweep_all_steps(fn("all_plus"), 8):
            assert rep.scan_max.compare(rep.omega) <= 0

    @pytest.mark.parametrize("spec", BUILTIN_NAMES + ("bernoulli:1/2:1",))
    def test_class_bound_sqrt2_omega(self, spec):
        for rep in sweep_all_steps(fn(spec), 8):
            assert rep.scan_max.compare(SQRT2 * rep.omega) <= 0

    def test_seeded_ensemble_bound(self):
        # 32 seeded draws stand in for the (uncountable) whole class
        for seed in range(32):
            f = fn(f"bernoulli:1/2:{seed}")
            for j in (1, 3, 16, 100, 255):
                rep = modulus_scan(f, 8, F(j, 256))
                assert rep.scan_max.compare(SQRT2 * rep.omega) <= 0

    def test_holder_half_cap(self):
        # scan_max <= 5 sqrt(h), checked as scan_max**2 <= 25 h
        for spec in ("all_plus", "neg_half_split", "bernoulli:1/2:1"):
            for rep in sweep_all_steps(fn(spec), 6):
                assert (rep.scan_max * rep.scan_max).compare(25 * rep.h) <= 0


class TestSearchPremise:
    """The two facts the step search's tail bound rests on, checked exhaustively on small grids."""

    @pytest.mark.parametrize("level", range(1, 11))
    def test_whole_class_increments_within_sqrt2_omega(self, level):
        for j in range(1, (1 << level) + 1):
            mp, mq, _ = _oracle_argmax(*oracle_class_increments(level, j))
            assert pair_value(mp, mq, level).compare(SQRT2 * oracle_omega(F(j, 1 << level))) <= 0, j

    @pytest.mark.parametrize("level", range(13))
    def test_omega_nondecreasing_over_grid_steps(self, level):
        steps = [_omega_pair(j, 1 << level) for j in range(1, (1 << level) + 1)]
        for j, ((p0, q0, d0), (p1, q1, d1)) in enumerate(zip(steps, steps[1:]), 1):
            assert sign_pair(p1 * d0 - p0 * d1, q1 * d0 - q0 * d1) >= 0, j


def first_searched(level):
    return next(j for j in count(1) if _searched(level, j))


class TestStepPaths:
    """Single steps at large grids, searched or streamed as ``_searched`` rules."""

    def test_rule(self):
        # below grid 16 every step streams; from grid 16 on, the small steps do
        assert not any(_searched(level, j) for level in range(16) for j in range(1, (1 << level) + 1))
        for level, first in ((16, 54), (17, 30), (20, 21), (22, 21), (24, 21), (26, 21)):
            assert first_searched(level) == first
            assert all(_searched(level, j) for j in (first, first + 1, 4095, 1 << level))

    @pytest.mark.parametrize("level,spec", [(17, "alt_mk"), (18, "bernoulli:1/3:5"), (19, "half_split"),
                                            (20, "neg_half_split")])
    def test_sampled_steps_match_oracle(self, level, spec):
        f, n = fn(spec), 1 << level
        grid = oracle_grid_pairs(f, level)
        rng = random.Random(level)
        js = {1, 2, first_searched(level) - 1, first_searched(level), 37, 300, 4095, round(n / 3),
              n - 1, n, *rng.sample(range(1, n), 3)}
        for j in sorted(js):
            assert modulus_scan(f, level, F(j, n)) == oracle_modulus_scan(f, level, F(j, n), grid), j

    @pytest.mark.parametrize("searched", [False, True])
    def test_ties_keep_the_first_t(self, monkeypatch, searched):
        # x(1 - t) = x(t) for all_plus, so |g| ties at t and 1 - t - h for every step
        monkeypatch.setattr(modulus, "_searched", lambda level, j: searched)
        f = fn("all_plus")
        grid = oracle_grid_pairs(f, 12)
        for j in (1, 5, 37, 300, 1365, 4095):
            h = F(j, 4096)
            rep = modulus_scan(f, 12, h)
            dp, dq = grid[0][j:] - grid[0][:-j], grid[1][j:] - grid[1][:-j]
            size = abs(pair_value(*rep.pair, 12))
            ties = [i for i in range(len(dp)) if abs(pair_value(int(dp[i]), int(dq[i]), 12)) == size]
            assert len(ties) >= 2 and rep.tie == ties[0] <= (4096 - j) // 2, j
            assert rep == oracle_modulus_scan(f, 12, h, grid), j

    @pytest.mark.parametrize("which", ["streamed", "first searched", "37", "12345"])
    def test_grid_22_step_holds_no_grid(self, monkeypatch, which):
        j = {"streamed": first_searched(22) - 1, "first searched": first_searched(22)}.get(which) or int(which)

        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(TakagiFunction, "grid_pairs", no_grid)
        f = fn("alt_mk")
        tracemalloc.start()
        try:
            rep = modulus_scan(f, 22, F(j, 1 << 22))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak
        # the reported t reaches the reported size
        inc = f.at_dyadic(rep.witness_t + rep.h) - f.at_dyadic(rep.witness_t)
        assert abs(inc) == rep.scan_max


class TestWitnesses:
    def test_steps(self):
        assert witness_steps(2) == (F(5, 12), F(1, 6))

    def test_part_a_rows_match_closed_form(self):
        rows = witness_ratios("part_a", 1, 10)
        for row in rows:
            _, h_n = witness_steps(row.n)
            assert row.increment == omega(h_n) - QuadValue(1, 1) * h_n

    def test_part_a_n2_value(self):
        (row,) = witness_ratios("part_a", 2, 2)
        assert row.increment == omega(F(1, 6)) - QuadValue(F(1, 6), F(1, 6))

    def test_part_b_rows_match_closed_form(self):
        rows = witness_ratios("part_b", 1, 10)
        for row in rows:
            _, h_n = witness_steps(row.n)
            assert row.increment == SQRT2 * omega(h_n) - QuadValue(2, 1) * h_n

    def test_part_b_increment_is_achieved(self):
        low = fn("neg_half_split")
        for n in (1, 3, 6):
            t_n, h_n = witness_steps(n)
            inc = thirds_value(low, t_n + h_n) - thirds_value(low, t_n)
            assert inc == witness_ratios("part_b", n, n)[0].increment

    def test_ratios_approach_limits(self):
        part_a = witness_ratios("part_a", 1, 12)
        part_b = witness_ratios("part_b", 1, 12)
        ratios_a = [float(r.ratio_decimal) for r in part_a]
        ratios_b = [float(r.ratio_decimal) for r in part_b]
        assert all(x < y for x, y in zip(ratios_a, ratios_a[1:]))
        assert all(x < y for x, y in zip(ratios_b, ratios_b[1:]))
        assert ratios_a[-1] >= 0.98
        assert ratios_b[-1] >= 1.40

    @pytest.mark.parametrize("kind", ["part_a", "part_b"])
    def test_ratio_column_is_the_quotient(self, kind):
        for row in witness_ratios(kind, 1, 40):
            _, h_n = witness_steps(row.n)
            assert row.ratio_decimal == (row.increment / oracle_omega(h_n)).decimal(8), row.n

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            witness_ratios("part_c", 1, 2)
