"""Block-streamed grids and the reductions over them, against full-grid oracles.

The block width is forced down to 2, 8 and 64 intervals so that grids of
level <= 12 run through many blocks: strides wider than a block, times
inside a block, coarse profile levels read from their own grids,
modulus lags inside, equal to and wider than a block, modulus sweeps
whose lag tiles (at most one block of increments) split around the block
width, and ties on the endpoint two blocks share.
"""

from fractions import Fraction as F
from functools import cmp_to_key

import numpy as np
import pytest

from takagiqv import takagi
from takagiqv.extrema import grid_extrema
from takagiqv.gridscan import block_extrema, exact_argmax, exact_argmin
from takagiqv.modulus import modulus_scan, nu, sweep_all_steps
from takagiqv.qfield import Dyadic
from takagiqv.quadvar import (
    counterexample_series,
    cov_approx,
    cov_profile,
    qv_approx,
    qv_of_sum,
    qv_profile,
)
from takagiqv.schemes import BUILTIN_NAMES, parse_scheme
from takagiqv.takagi import TakagiFunction, pair_blocks, pair_value

from conftest import (
    _oracle_argmax,
    oracle_absmax,
    oracle_counterexample_series,
    oracle_cov_approx,
    oracle_grid_extrema,
    oracle_grid_pairs,
    oracle_modulus_scan,
    oracle_omega,
    oracle_qv_approx,
    oracle_qv_of_sum,
    oracle_qv_profile,
)

SCHEMES = BUILTIN_NAMES + ("bernoulli:1/3:5",)
WIDTHS = [2, 8, 64]


def fn(spec):
    return TakagiFunction(parse_scheme(spec))


@pytest.fixture(params=WIDTHS)
def width(request, monkeypatch):
    monkeypatch.setattr(takagi, "BLOCK", request.param)
    return request.param


def joined(blocks):
    """Concatenate (offset, p, q) blocks, dropping each shared first point."""
    ps, qs, offsets = [], [], []
    for off, p, q in blocks:
        offsets.append(off)
        first = 1 if off else 0
        ps.append(p[first:].copy())  # the next block reuses these arrays
        qs.append(q[first:].copy())
    return offsets, np.concatenate(ps), np.concatenate(qs)


class TestBlocks:
    @pytest.mark.parametrize("spec", ["alt_mk", "bernoulli:1/3:5"])
    @pytest.mark.parametrize("level", [0, 1, 15, 16, 17, 18])
    def test_default_width_joins_to_the_grid(self, spec, level):
        f = fn(spec)
        offsets, p, q = joined(f._blocks(level))
        width = min(takagi.BLOCK, 1 << level)
        assert offsets == list(range(0, 1 << level, width))
        op, oq = oracle_grid_pairs(f, level)
        assert np.array_equal(p, op) and np.array_equal(q, oq)
        gp, gq = f.grid_pairs(level)
        assert np.array_equal(gp, op) and np.array_equal(gq, oq)

    @pytest.mark.parametrize("spec", SCHEMES)
    @pytest.mark.parametrize("level", [0, 1, 3, 9])
    def test_small_widths_join_to_the_grid(self, width, spec, level):
        f = fn(spec)
        offsets, p, q = joined(f._blocks(level))
        assert len(offsets) == max(1, (1 << level) // width)
        op, oq = oracle_grid_pairs(f, level)
        assert np.array_equal(p, op) and np.array_equal(q, oq)
        gp, gq = f.grid_pairs(level)
        assert np.array_equal(gp, op) and np.array_equal(gq, oq)

    def test_pair_blocks_share_the_layout(self, width):
        f = fn("half_split")
        p, q = f.grid_pairs(7)
        streamed = [(off, bp.copy(), bq.copy()) for off, bp, bq in f._blocks(7)]
        for (o1, p1, q1), (o2, p2, q2) in zip(streamed, pair_blocks(p, q), strict=True):
            assert o1 == o2 and np.array_equal(p1, p2) and np.array_equal(q1, q2)

    def test_pair_blocks_of_any_length(self, width):
        for n in range(1, 3 * width + 3):
            a = np.arange(n)
            blocks = list(pair_blocks(a, -a))
            assert [off for off, _, _ in blocks] == list(range(0, max(n - 1, 1), width))
            for off, bp, bq in blocks:
                assert 1 <= len(bp) <= width + 1
                assert np.array_equal(bp, a[off : off + len(bp)]) and np.array_equal(bq, -bp)
            assert blocks[-1][0] + len(blocks[-1][1]) == n  # the last block ends the array

    def test_level_above_cap_refused(self):
        with pytest.raises(ValueError, match=r"\[0, 26\]"):
            next(fn("all_plus")._blocks(27))


class TestExtrema:
    @pytest.mark.parametrize("spec", SCHEMES)
    @pytest.mark.parametrize("level", [1, 2, 5, 10])
    def test_matches_oracle(self, width, spec, level):
        f = fn(spec)
        assert grid_extrema(f, level) == oracle_grid_extrema(f, level)

    @pytest.mark.parametrize("spec", ["all_plus", "half_split", "bernoulli:1/3:5"])
    def test_default_width_matches_oracle(self, spec):
        f = fn(spec)
        assert grid_extrema(f, 17) == oracle_grid_extrema(f, 17)

    def test_ties_on_shared_endpoints_listed_once(self, width):
        # maxima at 2, 4, 5, 7 and minima at 0, 6, 8; 2, 4, 6 end a width-2 block
        p = np.array([0, 1, 3, 1, 3, 3, 0, 3, 0], dtype=np.int64)
        q = np.zeros_like(p)
        hi, lo = block_extrema(pair_blocks(p, q))
        assert hi == (3, 0, [2, 4, 5, 7])
        assert lo == (0, 0, [0, 6, 8])

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_full_array_scans_match_single_sided_oracle(self, spec):
        p, q = fn(spec).grid_pairs(12)
        dp, dq = p[5:] - p[:-5], q[5:] - q[:-5]
        assert exact_argmax(dp, dq) == _oracle_argmax(dp, dq)
        lo_p, lo_q, lo_ties = _oracle_argmax(-dp, -dq)
        assert exact_argmin(dp, dq) == (-lo_p, -lo_q, lo_ties)

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_absmax_matches_brute_force(self, spec):
        p, q = fn(spec).grid_pairs(8)
        for j in (1, 3, 85):
            dp, dq = p[j:] - p[:-j], q[j:] - q[:-j]
            sizes = [abs(pair_value(int(a), int(b), 8)) for a, b in zip(dp, dq)]
            top = sizes[0]
            for v in sizes:
                if v.compare(top) > 0:
                    top = v
            mp, mq, ties = oracle_absmax(dp, dq)
            assert pair_value(mp, mq, 8) == top
            assert ties == [i for i, v in enumerate(sizes) if v == top]


    @pytest.mark.parametrize("extra", [0, 1, 2])
    @pytest.mark.parametrize("length", ["1", "2", "w"])
    def test_full_array_scans_of_block_lengths(self, width, length, extra):
        n = {"1": 1, "2": 2, "w": width}[length] + extra
        rng = np.random.default_rng(1000 * width + 10 * n + extra)
        for _ in range(20):
            # few distinct values, so ties are common, some across blocks
            p = rng.integers(-3, 4, n).astype(np.int64)
            q = rng.integers(-2, 3, n).astype(np.int64)
            values = [pair_value(int(a), int(b), 0) for a, b in zip(p, q)]
            by_value = cmp_to_key(lambda u, v: u.compare(v))
            top, bottom = max(values, key=by_value), min(values, key=by_value)
            size = max(abs(top), abs(bottom), key=by_value)
            hi, lo = exact_argmax(p, q), exact_argmin(p, q)
            assert hi == _oracle_argmax(p, q)
            lo_p, lo_q, lo_ties = _oracle_argmax(-p, -q)
            assert lo == (-lo_p, -lo_q, lo_ties)
            assert pair_value(hi[0], hi[1], 0) == top
            assert hi[2] == [i for i, v in enumerate(values) if v == top]
            assert pair_value(lo[0], lo[1], 0) == bottom
            assert lo[2] == [i for i, v in enumerate(values) if v == bottom]
            mp, mq, ties = oracle_absmax(p, q)
            assert pair_value(mp, mq, 0) == size
            assert ties == [i for i, v in enumerate(values) if abs(v) == size]


def assert_same_scan(rep, oracle, note=None):
    """Equal reports, nu and omega equal to their definitions at the step, and
    a ratio column equal to the quotient by the oracle's omega."""
    assert rep == oracle, note
    assert rep.nu == nu(rep.h), note
    assert rep.omega == oracle_omega(rep.h), note
    assert rep.ratio_decimal == (oracle.scan_max / oracle_omega(oracle.h)).decimal(8), note


class TestModulus:
    """Lagged increment blocks against full-size increment arrays."""

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_scan_matches_oracle(self, width, spec):
        f = fn(spec)
        for j in sorted({1, width - 1, width, width + 1, 2 * width + 3, 255, 256}):
            h = F(j, 256)
            assert_same_scan(modulus_scan(f, 8, h), oracle_modulus_scan(f, 8, h), j)

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_sweep_matches_oracle_at_every_step(self, width, spec):
        f = fn(spec)
        reports = sweep_all_steps(f, 6)
        assert len(reports) == 64
        for j, rep in enumerate(reports, 1):
            assert_same_scan(rep, oracle_modulus_scan(f, 6, F(j, 64)), j)

    @pytest.mark.parametrize("spec", SCHEMES)
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 7])
    def test_sweep_tiles_match_oracle_at_every_step(self, width, spec, level):
        # with BLOCK = w, lag j has 2**level + 1 - j rows: row tiles split at
        # w + 1, w and w - 1 rows and leave one row over; below w/2 rows a tile
        # holds several lags, its last row tile padded past j = 2**level
        f = fn(spec)
        reports = sweep_all_steps(f, level)
        assert len(reports) == 1 << level
        for j, rep in enumerate(reports, 1):
            assert_same_scan(rep, oracle_modulus_scan(f, level, F(j, 1 << level)), j)

    @pytest.mark.parametrize("spec", SCHEMES)
    @pytest.mark.parametrize("level", [8, 9])
    def test_default_width_sweeps_match_oracle(self, spec, level):
        # grid 8 sweeps in one 256 x 256 tile; grid 9 in tiles of 128 lags and more
        f = fn(spec)
        for j, rep in enumerate(sweep_all_steps(f, level), 1):
            assert_same_scan(rep, oracle_modulus_scan(f, level, F(j, 1 << level)), j)

    def test_default_width_lags_across_blocks(self):
        f = fn("alt_mk")
        for j in (1, 3, (1 << 16) - 1, 1 << 16, (1 << 16) + 3, (1 << 17) - 1, 1 << 17):
            h = F(j, 1 << 17)
            assert_same_scan(modulus_scan(f, 17, h), oracle_modulus_scan(f, 17, h), j)


TIMES = [F(0), F(1, 8), F(5, 16), F(1, 2), F(11, 16), F(1)]


class TestSums:
    @pytest.mark.parametrize("spec", SCHEMES)
    def test_qv_matches_oracle(self, width, spec):
        f = fn(spec)
        for level in (4, 9):
            for t in TIMES:
                assert qv_approx(f, level, t) == oracle_qv_approx(f, level, t)
                grid = f.grid_pairs(level)
                assert qv_approx(grid, level, t) == oracle_qv_approx(grid, level, t)

    @pytest.mark.parametrize("sx", SCHEMES)
    def test_cov_and_sum_match_oracle(self, width, sx):
        x = fn(sx)
        for sy in ("alt_m", "half_split", "bernoulli:1/3:5"):
            y = fn(sy)
            for t in TIMES:
                assert cov_approx(x, y, 9, t) == oracle_cov_approx(x, y, 9, t)
                assert qv_of_sum(x, y, 9, t) == oracle_qv_of_sum(x, y, 9, t)
            gy = y.grid_pairs(9)
            assert cov_approx(x, gy, 9, F(3, 8)) == oracle_cov_approx(x, gy, 9, F(3, 8))
            assert qv_of_sum(gy, x, 9, F(3, 8)) == oracle_qv_of_sum(gy, x, 9, F(3, 8))

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_profile_matches_oracle_at_every_stride(self, width, spec):
        f = fn(spec)
        level = 10
        for e in range(level + 1):
            assert qv_profile(f, level, 1 << e) == oracle_qv_profile(f, level, 1 << e)
        grid = f.grid_pairs(level)
        assert qv_profile(grid, level, 256) == oracle_qv_profile(grid, level, 256)

    def test_default_width_strides_wider_than_a_block(self):
        f = fn("bernoulli:1/3:5")
        for stride in (1 << 15, 1 << 16, 1 << 17):
            assert qv_profile(f, 17, stride) == oracle_qv_profile(f, 17, stride)


class TestLevelProfiles:
    @pytest.mark.parametrize("t", [F(0), F(1, 4), F(3, 8), F(1)])
    def test_counterexample_matches_oracle(self, width, t):
        assert counterexample_series(12, t) == oracle_counterexample_series(12, t)

    def test_counterexample_default_width(self):
        # level 1 is read from the endpoints of the four level-18 blocks
        assert counterexample_series(18, F(1, 2)) == oracle_counterexample_series(18, F(1, 2))

    @pytest.mark.parametrize("sx,sy", [("all_plus", "alt_m"), ("half_split", "bernoulli:1/3:5")])
    @pytest.mark.parametrize("t", [F(1, 2), F(7, 16), F(1)])
    def test_cov_profile_matches_oracle(self, width, sx, sy, t):
        x, y = fn(sx), fn(sy)
        rows = cov_profile(x, y, 11, t).rows
        first = max(1, Dyadic.from_fraction(t).exp)
        assert [r.level for r in rows] == list(range(first, 12))
        assert [r.value for r in rows] == [oracle_cov_approx(x, y, n, t) for n in range(first, 12)]

    def test_cov_profile_below_the_first_level_is_empty(self):
        assert cov_profile(fn("all_plus"), fn("alt_m"), 0, 1).rows == []


class TestInt64Guard:
    """A caller's pair grid whose int64 sums could overflow is refused."""

    @staticmethod
    def calls(grid, level):
        return [
            lambda: qv_approx(grid, level, 1),
            lambda: cov_approx(grid, grid, level, 1),
            lambda: qv_of_sum(grid, grid, level, 1),
            lambda: qv_profile(grid, level, 1),
        ]

    def test_wide_increments_refused(self):
        p = np.array([0, 1 << 40, 0], dtype=np.int64)
        grid = (p, np.zeros_like(p))
        for call in self.calls(grid, 1):
            with pytest.raises(ValueError, match="overflow"):
                call()

    def test_wide_sqrt2_part_refused(self):
        q = np.array([0, 0, 1 << 30, 0, 0], dtype=np.int64)
        for call in self.calls((np.zeros_like(q), q), 2):
            with pytest.raises(ValueError, match="overflow"):
                call()

    @pytest.mark.parametrize("entry", [1 << 61, -(1 << 62), np.iinfo(np.int64).min])
    def test_large_entries_refused(self, entry):
        p = np.array([0, entry, 0], dtype=np.int64)
        for call in self.calls((p, np.zeros_like(p)), 1):
            with pytest.raises(ValueError, match="2\\*\\*61"):
                call()

    def test_largest_accepted_increment(self):
        # 12 * w * d**2 < 2**63 with w = 2 intervals: d = 2**29 passes
        p = np.array([0, 1 << 29, 0], dtype=np.int64)
        assert qv_approx((p, np.zeros_like(p)), 1, 1).a == F(1 << 59, 4)
        p[1] = 1 << 30
        with pytest.raises(ValueError):
            qv_approx((p, np.zeros_like(p)), 1, 1)

    def test_guard_is_per_block(self, width):
        # a wide increment in the last block refuses the sums that reach it
        p = np.zeros(129, dtype=np.int64)
        p[-1] = 1 << 40
        grid = (p, np.zeros_like(p))
        with pytest.raises(ValueError):
            qv_profile(grid, 7, 1)
        with pytest.raises(ValueError):
            qv_approx(grid, 7, 1)
        assert qv_approx(grid, 7, F(1, 2)).a == 0
