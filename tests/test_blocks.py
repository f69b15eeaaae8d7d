"""Block-streamed grids and the reductions over them, against full-grid oracles.

The block width is forced down to 2, 8 and 64 intervals so that grids of
level <= 12 run through many blocks: strides wider than a block, times
inside a block, coefficient sums over several block-wide chunks,
modulus lags inside, equal to and wider than a block, streamed or
searched from a seed grid of several blocks, modulus sweeps whose lag tiles
(at most one block of increments) split around the block width, and ties
on the endpoint two blocks share.
"""

from fractions import Fraction as F
from functools import cmp_to_key
from math import isqrt

import numpy as np
import pytest

from takagiqv import modulus, quadvar, takagi
from takagiqv.extrema import grid_extrema
from takagiqv.gridscan import block_extrema, exact_argmax, exact_argmin
from takagiqv.modulus import modulus_scan, nu, sweep_all_steps
from takagiqv.qfield import Dyadic
from takagiqv.follmer import RationalPolynomial, follmer_sum
from takagiqv.quadvar import (
    counterexample_series,
    cov_approx,
    cov_profile,
    qv_approx,
    qv_of_sum,
    qv_profile,
)
from takagiqv.schemes import BUILTIN_NAMES, Explicit, parse_scheme
from takagiqv.takagi import TakagiFunction, grid_blocks, pair_value

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
    thetas_reads,
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
    @pytest.mark.parametrize("spec", ["alt_mk", "neg_half_split", "bernoulli:1/3:5", "bernoulli:0:3", "bernoulli:1:3"])
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

    @pytest.mark.parametrize("spec", ["alt_mk", "bernoulli:1/3:5"])
    def test_each_block_reads_its_own_coefficients(self, spec, monkeypatch):
        """A block asks the scheme for its own indices only: no call reads more than
        one block, each generation is read once, and the function keeps nothing."""
        f = fn(spec)
        reads = thetas_reads(monkeypatch, f.scheme)
        f.grid_pairs(18)
        assert max(len(k) for _, k in reads) <= takagi.BLOCK
        for m in range(18):
            got = np.concatenate([k for n, k in reads if n == m])
            assert np.array_equal(np.sort(got), np.arange(1 << m))
        assert {m for m, _ in reads} == set(range(18))
        assert vars(f) == {"scheme": f.scheme}

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
        """grid_blocks reads a function and its pair grid, as a tuple or a
        stacked array, in the layout of ``_blocks``."""
        f = fn("half_split")
        for level in (0, 1, 3, 7):
            p, q = f.grid_pairs(level)
            streamed = [(off, bp.copy(), bq.copy()) for off, bp, bq in f._blocks(level)]
            for x in (f, (p, q), np.stack((p, q))):
                for (o1, p1, q1), (o2, p2, q2) in zip(streamed, grid_blocks(x, level), strict=True):
                    assert o1 == o2 and np.array_equal(p1, p2) and np.array_equal(q1, q2)

    def test_pair_blocks_of_any_length(self, width):
        """A pair grid of 2**level + 1 points is read as views that cover it and
        share endpoints, and any other length is refused; exact_argmax and
        exact_argmin screen arrays of any length."""
        rng = np.random.default_rng(width)
        for n in range(1, 3 * width + 3):
            a = np.arange(n)
            for level in range(n.bit_length() + 1):
                if n != (1 << level) + 1:
                    with pytest.raises(ValueError, match="wrong length"):
                        grid_blocks((a, -a), level)
                    continue
                blocks = list(grid_blocks((a, -a), level))
                assert [off for off, _, _ in blocks] == list(range(0, n - 1, width))
                for off, bp, bq in blocks:
                    assert 2 <= len(bp) <= width + 1
                    assert np.array_equal(bp, a[off : off + len(bp)]) and np.array_equal(bq, -bp)
                assert blocks[-1][0] + len(blocks[-1][1]) == n  # the last block ends the array
            p, q = rng.integers(-3, 4, n), rng.integers(-2, 3, n)
            assert exact_argmax(p, q) == _oracle_argmax(p, q)
            lo_p, lo_q, lo_ties = _oracle_argmax(-p, -q)
            assert exact_argmin(p, q) == (-lo_p, -lo_q, lo_ties)

    def test_level_above_cap_refused(self):
        with pytest.raises(ValueError, match=r"\[0, 26\]"):
            next(fn("all_plus")._blocks(27))


class TestPrefixReads:
    """grid_blocks(x, level, end) yields the blocks that hold points 0 .. end, the last one
    trimmed at end, and never builds a later block."""

    @staticmethod
    def ends(level):
        """0, 1, 2**level and every block edge +-1 on the level grid."""
        top, w = 1 << level, min(takagi.BLOCK, 1 << level)
        near = {e + d for e in range(0, top + 1, w) for d in (-1, 0, 1)}
        return sorted({0, 1, top} | {e for e in near if 0 <= e <= top})

    @staticmethod
    def asked(monkeypatch):
        """From now on, the offsets of the blocks each ``_blocks`` call is asked for."""
        seen, original = [], TakagiFunction._blocks

        def recording(self, level):
            for block in original(self, level):
                seen.append(block[0])
                yield block

        monkeypatch.setattr(TakagiFunction, "_blocks", recording)
        return seen

    @pytest.mark.parametrize("block,level", [(w, level) for w in (2, 8, 64, None) for level in (0, 1, 3, 7)]
                             + [(None, 17)])
    def test_joined_prefix_is_the_grid_up_to_end(self, monkeypatch, block, level):
        if block is not None:
            monkeypatch.setattr(takagi, "BLOCK", block)
        w = min(takagi.BLOCK, 1 << level)
        f = fn("alt_mk")
        p, q = oracle_grid_pairs(f, level)
        asked = self.asked(monkeypatch)
        for end in self.ends(level):
            for x in (f, (p, q), np.stack((p, q))):
                asked.clear()
                offsets, jp, jq = joined(grid_blocks(x, level, end))
                assert offsets == list(range(0, max(end, 1), w))
                assert np.array_equal(jp, p[: end + 1]) and np.array_equal(jq, q[: end + 1])
                assert asked == (offsets if x is f else [])

    def test_library_reads_stop_at_t(self, width, monkeypatch):
        f, g = fn("bernoulli:1/3:5"), RationalPolynomial.parse("0,1,1")
        asked = self.asked(monkeypatch)
        for j in self.ends(6):
            t = F(j, 1 << 6)
            asked.clear()
            follmer_sum(g, f, 6, t)
            assert asked == list(range(0, max(j, 1), min(width, 1 << 6)))
            # each class member is read on the coarsest grid carrying t, up to t
            k = Dyadic.from_fraction(t).exp
            end = j >> 6 - k
            asked.clear()
            qv_of_sum(f, fn("alt_mk"), 6, t)
            assert sorted(asked) == sorted(2 * list(range(0, max(end, 1), min(width, 1 << k))))

    def test_wrong_length_refused_when_called(self):
        a = np.arange(5)
        for end in (None, 0, 3):
            with pytest.raises(ValueError, match="wrong length"):
                grid_blocks((a, a), 3, end)


class TestExtrema:
    @pytest.mark.parametrize("spec", SCHEMES)
    @pytest.mark.parametrize("level", [1, 2, 5, 9, 10, 11, 12, 18])
    def test_matches_oracle(self, width, spec, level):
        f = fn(spec)
        assert grid_extrema(f, level) == oracle_grid_extrema(f, level)

    @pytest.mark.parametrize("p_plus", ["0", "1", "1/100", "99/100", "1/3"])
    def test_bernoulli_draws_match_oracle(self, p_plus):
        for seed in (0, 1, 7, 12345, -(1 << 63), (1 << 63) - 1):
            f = fn(f"bernoulli:{p_plus}:{seed}")
            for level in range(1, 17):
                assert grid_extrema(f, level) == oracle_grid_extrema(f, level), (seed, level)

    def test_file_scheme_with_four_tied_maxima(self, tmp_path):
        # generations 0-4 put the maximum at four level-5 points; every later
        # coefficient is -1, so each finer point lies below its cell's chord
        # and the search refines the cells around the ties down to level 12
        neg = {(1, 0), (1, 1), (3, 0), (3, 1), (3, 3), (3, 4), (3, 6), (3, 7), (4, 1), (4, 3), (4, 11), (4, 12)}
        table = {(m, k): -1 if m >= 5 or (m, k) in neg else 1 for m in range(12) for k in range(1 << m)}
        path = tmp_path / "ties.txt"
        Explicit(table, 12).save(path)
        f = fn(f"file:{path}")
        rep = grid_extrema(f, 12)
        assert [str(t) for t in rep.argmax] == ["11/32", "15/32", "17/32", "21/32"]
        assert [str(t) for t in rep.argmin] == ["853/4096", "3243/4096"]
        assert rep == oracle_grid_extrema(f, 12)

    @pytest.mark.parametrize("spec", ["all_plus", "half_split", "bernoulli:1/3:5"])
    def test_default_width_matches_oracle(self, spec):
        f = fn(spec)
        assert grid_extrema(f, 17) == oracle_grid_extrema(f, 17)

    def test_ties_on_shared_endpoints_listed_once(self, width):
        # maxima at 2, 4, 5, 7 and minima at 0, 6, 8; 2, 4, 6 end a width-2 block
        p = np.array([0, 1, 3, 1, 3, 3, 0, 3, 0], dtype=np.int64)
        q = np.zeros_like(p)
        hi, lo = block_extrema(grid_blocks((p, q), 3))
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

    @staticmethod
    def assert_every_step(monkeypatch, level, searched):
        # forced for every step: the search from a seed below the grid in chunks of 5 cells,
        # or the block stream; each level takes another scheme
        monkeypatch.setattr(modulus, "_searched", lambda level, j: searched)
        monkeypatch.setattr(modulus, "SEED_LEVEL", level // 3)
        monkeypatch.setattr(modulus, "SEARCH_CHUNK", 5)
        f = fn(SCHEMES[level % len(SCHEMES)])
        grid = oracle_grid_pairs(f, level)
        for j in range(1, (1 << level) + 1):
            h = F(j, 1 << level)
            assert modulus_scan(f, level, h) == oracle_modulus_scan(f, level, h, grid), j

    @pytest.mark.parametrize("level", range(1, 11))
    def test_search_matches_oracle_at_every_step(self, width, monkeypatch, level):
        self.assert_every_step(monkeypatch, level, True)

    @pytest.mark.parametrize("level", range(1, 8))
    def test_stream_matches_oracle_at_every_step(self, width, monkeypatch, level):
        # a step wider than a block is scanned from the points held before it
        self.assert_every_step(monkeypatch, level, False)

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
        # 3 * w * d**2 < 2**63 with w = 2 intervals: d = isqrt((2**63 - 1) // 6) passes, d + 1 does not
        d = isqrt(((1 << 63) - 1) // 6)
        p = np.array([0, d, 0], dtype=np.int64)
        grid = (p, np.zeros_like(p))
        assert qv_approx(grid, 1, 1).a == cov_approx(grid, grid, 1, 1).a == F(d * d, 2)
        assert qv_of_sum(grid, grid, 1, 1).a == F(2 * d * d)
        assert qv_profile(grid, 1, 1).rows[-1].value.a == F(d * d, 2)
        p[1] = d + 1
        for call in self.calls(grid, 1):
            with pytest.raises(ValueError, match="overflow"):
                call()

    def test_increments_measured_only_when_the_entries_allow_an_overflow(self, monkeypatch):
        # |d| <= 2e for entries up to e: with w = 2 intervals, 12 * w * e**2 < 2**63 reads only the
        # entries' sizes; one more and the increments are measured too, and still accepted
        sizes = []
        size = quadvar._size
        monkeypatch.setattr(quadvar, "_size", lambda a: sizes.append(len(a)) or size(a))
        e = isqrt(((1 << 63) - 1) // 24)
        for entry, read in ((e, [3, 3]), (e + 1, [3, 3, 2, 2])):
            p = np.array([0, entry, 0], dtype=np.int64)
            sizes.clear()
            assert qv_approx((p, np.zeros_like(p)), 1, 1).a == F(entry * entry, 2)
            assert sizes == read

    @pytest.mark.parametrize("wide", [1 << 40, 1 << 61])
    def test_offender_after_t_inside_its_block_is_summed(self, monkeypatch, wide):
        # blocks of 8 intervals; t = 3/32 ends inside the first, whose interval 5 is too wide
        monkeypatch.setattr(takagi, "BLOCK", 8)
        rng = np.random.default_rng(1)
        p, q = rng.integers(-9, 10, 33), rng.integers(-9, 10, 33)
        p[6] = wide
        y = (rng.integers(-9, 10, 33), rng.integers(-9, 10, 33))
        t = F(3, 32)
        assert qv_approx((p, q), 5, t) == oracle_qv_approx((p, q), 5, t)
        assert cov_approx((p, q), y, 5, t) == oracle_cov_approx((p, q), y, 5, t)
        assert qv_of_sum(y, (p, q), 5, t) == oracle_qv_of_sum(y, (p, q), 5, t)
        for call in self.calls((p, q), 5):
            with pytest.raises(ValueError, match="overflow|2\\*\\*61"):
                call()

    def test_partly_read_block_keeps_its_width(self, monkeypatch):
        # t = 3/32 reads 3 of the first block's 8 intervals; the bound is still 3 * 8 * d**2
        monkeypatch.setattr(takagi, "BLOCK", 8)
        d = isqrt(((1 << 63) - 1) // 24) + 1
        p = np.zeros(33, dtype=np.int64)
        p[1] = d
        with pytest.raises(ValueError, match="overflow"):
            qv_approx((p, np.zeros_like(p)), 5, F(3, 32))
        p[1] = d - 1
        assert qv_approx((p, np.zeros_like(p)), 5, F(3, 32)) == oracle_qv_approx((p, np.zeros_like(p)), 5, F(3, 32))

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
