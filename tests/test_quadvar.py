import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from takagiqv import quadvar, schemes, takagi
from takagiqv.qfield import Dyadic, QuadValue
from takagiqv.quadvar import (
    _cross,
    counterexample_series,
    cov_approx,
    cov_profile,
    qv_approx,
    qv_of_sum,
    qv_profile,
)
from takagiqv.follmer import RationalPolynomial, follmer_sum, ito_residual, time_sum
from takagiqv.schemes import BUILTIN_NAMES, AllPlus, Explicit, SchemeDepthError, parse_scheme
from takagiqv.takagi import TakagiFunction

from conftest import (
    oracle_cov,
    oracle_cov_approx,
    oracle_level_sums,
    oracle_qv,
    oracle_square,
    oracle_sum_square,
    thetas_reads,
)

ALL_SCHEMES = BUILTIN_NAMES + ("bernoulli:1/2:1",)


def fn(spec):
    return TakagiFunction(parse_scheme(spec))


class TestQV:
    def test_level_one(self):
        assert qv_approx(fn("all_plus"), 1, 1) == QuadValue(F(1, 2), 0)

    def test_level_two(self):
        # cross terms of (1/4 +- sqrt2/4)**2 cancel pairwise
        assert qv_approx(fn("all_plus"), 2, 1) == QuadValue(F(3, 4), 0)

    @pytest.mark.parametrize("spec", ALL_SCHEMES)
    @pytest.mark.parametrize("level", [1, 2, 5, 9])
    def test_full_interval_identity(self, spec, level):
        assert qv_approx(fn(spec), level, 1) == QuadValue(1 - F(1, 1 << level), 0)

    def test_starts_at_zero(self):
        assert qv_approx(fn("alt_mk"), 6, 0) == QuadValue(0, 0)

    @pytest.mark.parametrize("spec", ["all_plus", "half_split", "bernoulli:1/4:3"])
    def test_against_oracle(self, spec):
        f = fn(spec)
        for level, t in [(2, F(1, 2)), (3, F(5, 8)), (4, F(1))]:
            assert qv_approx(f, level, t) == oracle_qv(f, level, t)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            qv_approx(fn("all_plus"), 2, F(1, 8))
        with pytest.raises(ValueError):
            qv_approx(fn("all_plus"), 2, F(5, 4))
        with pytest.raises(ValueError):
            qv_approx(fn("all_plus"), 2, F(1, 3))


class TestCovariation:
    def test_hand_values(self):
        x, y = fn("all_plus"), fn("alt_m")
        assert cov_approx(x, y, 2, 1) == QuadValue(F(-1, 4), 0)
        assert cov_approx(x, y, 3, 1) == QuadValue(F(3, 8), 0)

    def test_against_oracle(self):
        x, y = fn("all_plus"), fn("alt_m")
        assert cov_approx(x, y, 2, 1) == oracle_cov(x, y, 2, F(1))
        assert cov_approx(x, y, 3, 1) == oracle_cov(x, y, 3, F(1))
        assert cov_approx(x, y, 3, F(1, 2)) == oracle_cov(x, y, 3, F(1, 2))

    def test_self_covariation_is_qv(self):
        x = fn("half_split")
        for level in (2, 4, 7):
            assert cov_approx(x, x, level, 1) == qv_approx(x, level, 1)


class TestSum:
    def test_hand_values(self):
        x, y = fn("all_plus"), fn("alt_m")
        assert qv_of_sum(x, y, 2, 1) == QuadValue(1, 0)
        assert qv_of_sum(x, y, 3, 1) == QuadValue(F(5, 2), 0)

    def test_function_minus_itself(self):
        x = fn("alt_mk")
        neg = TakagiFunction(x.scheme.negated())
        for level in (1, 4, 6):
            assert qv_of_sum(x, neg, level, 1) == QuadValue(0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(ALL_SCHEMES),
        st.sampled_from(ALL_SCHEMES),
        st.integers(1, 6),
        st.integers(0, 64),
    )
    def test_polarization_exact(self, sx, sy, level, j):
        j %= (1 << level) + 1
        t = Dyadic(j, level)
        x, y = fn(sx), fn(sy)
        lhs = cov_approx(x, y, level, t)
        rhs = (qv_of_sum(x, y, level, t) - qv_approx(x, level, t) - qv_approx(y, level, t)) * F(1, 2)
        assert lhs == rhs


class TestProfile:
    def test_shape_and_endpoint(self):
        series = qv_profile(fn("all_plus"), 8, stride=16)
        assert len(series.rows) == 17
        assert series.rows[0].value == QuadValue(0, 0)
        assert series.rows[-1].value == QuadValue(F(255, 256), 0)

    def test_monotone(self):
        rows = qv_profile(fn("bernoulli:1/2:7"), 8, stride=8).rows
        for a, b in zip(rows, rows[1:]):
            assert a.value.compare(b.value) <= 0

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            qv_profile(fn("all_plus"), 4, stride=3)

    @pytest.mark.parametrize("spec", ["half_split", "bernoulli:1/3:5"])
    def test_strided_rows_are_every_stride_th_full_row(self, spec):
        f = fn(spec)
        full = qv_profile(f, 10, 1).rows
        grid = f.grid_pairs(10)
        assert [r.value for r in full] == [qv_approx(grid, 10, r.t) for r in full]
        for e in range(11):
            assert qv_profile(f, 10, 1 << e).rows == full[:: 1 << e]

    def test_near_linear_at_depth(self):
        for row in qv_profile(fn("alt_mk"), 14, stride=1 << 11).rows:
            assert abs(float(row.value) - float(row.t)) < 1e-3


class TestProfileUpToT:
    """``_profile_sums(x, level, stride, t)`` is the whole profile's rows at or before t,
    read from the blocks that hold them only."""

    LEVEL = 12

    @staticmethod
    def pair_grid():
        rng = np.random.default_rng(5)
        return tuple(rng.integers(-999, 1000, (1 << TestProfileUpToT.LEVEL) + 1) for _ in "pq")

    @pytest.mark.parametrize("t", [F(0), F(1, 3), F(5, 8), F(1)])
    @pytest.mark.parametrize("stride", [1, 64])
    @pytest.mark.parametrize("spec", ["alt_mk", "bernoulli:1/3:7", "pair"])
    def test_rows_are_the_whole_profile_sliced(self, monkeypatch, spec, stride, t):
        monkeypatch.setattr(takagi, "BLOCK", 8)
        x = self.pair_grid() if spec == "pair" else fn(spec)
        count = int(t * (1 << self.LEVEL)) // stride + 1
        whole = quadvar._profile_sums(x, self.LEVEL, stride)
        got = quadvar._profile_sums(x, self.LEVEL, stride, t)
        assert [a.tolist() for a in got] == [a[:count].tolist() for a in whole]

    @pytest.mark.parametrize("t", [F(0), F(1, 3), F(5, 8), F(1)])
    @pytest.mark.parametrize("stride", [1, 64])
    def test_no_block_past_t_is_built(self, monkeypatch, stride, t):
        monkeypatch.setattr(takagi, "BLOCK", 8)
        f, offsets = fn("bernoulli:1/3:7"), []
        streamed = f._blocks

        def recording(level):
            for block in streamed(level):
                offsets.append(block[0])
                yield block

        monkeypatch.setattr(f, "_blocks", recording)
        quadvar._profile_sums(f, self.LEVEL, stride, t)
        k = self.LEVEL - stride.bit_length() + 1
        end = int(t * (1 << k))
        assert offsets == list(range(0, max(end, 1), 8))

    def test_pair_grid_past_t_is_not_read(self, monkeypatch):
        # a last increment too wide for int64 sums refuses the profile to 1, not one to t < 1
        monkeypatch.setattr(takagi, "BLOCK", 8)
        p, q = self.pair_grid()
        p[-1] = 1 << 40
        a, b = quadvar._profile_sums((p, q), self.LEVEL, 64, F(5, 8))
        assert len(a) == 41
        with pytest.raises(ValueError, match="overflow"):
            quadvar._profile_sums((p, q), self.LEVEL, 64)

    def test_stride_checked_before_t(self):
        with pytest.raises(ValueError, match="stride 0 must divide"):
            quadvar._profile_sums(fn("all_plus"), 3, 0, F(1, 2))


class TestCounterexample:
    def test_even_cov_rows(self):
        study = counterexample_series(6, 1)
        values = [(r.level, r.value) for r in study.even_cov.rows]
        assert values == [
            (2, QuadValue(F(-1, 4), 0)),
            (4, QuadValue(F(-5, 16), 0)),
            (6, QuadValue(F(-21, 64), 0)),
        ]

    def test_odd_cov_rows(self):
        study = counterexample_series(5, 1)
        values = [(r.level, r.value) for r in study.odd_cov.rows]
        assert values == [
            (1, QuadValue(F(1, 2), 0)),
            (3, QuadValue(F(3, 8), 0)),
            (5, QuadValue(F(11, 32), 0)),
        ]

    def test_even_qv_rows(self):
        study = counterexample_series(4, 1)
        values = [(r.level, r.value) for r in study.even_qv.rows]
        assert values == [(2, QuadValue(1, 0)), (4, QuadValue(F(5, 4), 0))]

    def test_distances_decrease_geometrically(self):
        study = counterexample_series(14, 1)
        for series in study:
            dists = [r.distance for r in series.rows]
            for a, b in zip(dists, dists[1:]):
                assert b.compare(a) < 0

    def test_fractional_time(self):
        study = counterexample_series(10, F(1, 2))
        last = study.even_cov.rows[-1]
        assert abs(float(last.value) + 1 / 6) < 1e-2

    def test_level_window_validation(self):
        with pytest.raises(ValueError):
            counterexample_series(2, F(1, 8))


class TestBoundedVariationPerturbation:
    """Adding a piecewise-linear sawtooth must not change the qv in the limit."""

    @staticmethod
    def sawtooth_pairs(level):
        # anchor values k(16-k)/16 at the level-4 grid; the linear
        # interpolant is then integer-valued at scale 2**level
        anchors = [k * (16 - k) for k in range(17)]
        seg = 1 << (level - 4)
        p = []
        for k in range(16):
            for r in range(seg):
                p.append(anchors[k] * (seg - r) + anchors[k + 1] * r)
        p.append(anchors[16] * seg)
        p = np.array(p, dtype=np.int64)
        q = np.zeros_like(p)
        return p, q

    def test_perturbation_washes_out(self):
        level_lo, level_hi = 8, 16
        x = fn("all_plus")
        results = {}
        for level in (level_lo, level_hi):
            f_pairs = self.sawtooth_pairs(level)
            x_pairs = x.grid_pairs(level)
            sum_pairs = (x_pairs[0] + f_pairs[0], x_pairs[1] + f_pairs[1])
            qv_x = qv_approx(x_pairs, level, 1)
            qv_f = qv_approx(f_pairs, level, 1)
            qv_xf = qv_approx(sum_pairs, level, 1)
            cov_xf = cov_approx(x_pairs, f_pairs, level, 1)
            # polarization is exact at every level
            assert qv_xf == qv_x + qv_f + cov_xf * 2
            results[level] = (qv_f, cov_xf, qv_xf - qv_x)
        for i in (0, 1, 2):
            assert abs(results[level_hi][i]).compare(abs(results[level_lo][i])) < 0
        qv_f, cov_xf, drift = results[level_hi]
        assert abs(float(qv_f)) < 2e-3
        assert abs(float(cov_xf)) < 1e-2
        assert abs(float(drift)) < 2e-2


@pytest.mark.parametrize("spec", ALL_SCHEMES)
def test_int64_bounds_behind_grid_level_cap(spec):
    """The bounds GRID_LEVEL_CAP rests on, on every grid up to level 20:

    |p|, |q| <= 2**(level+2), and the integer QV sums at t = 1 and over
    every stride block of qv_profile stay below 2**(2*level+6).
    """
    f = fn(spec)
    for level in range(21):
        p, q = f.grid_pairs(level)
        assert int(np.abs(p).max()) <= 1 << (level + 2)
        assert int(np.abs(q).max()) <= 1 << (level + 2)
        scale, bound = 1 << (2 * level), 1 << (2 * level + 6)
        total = qv_approx((p, q), level, 1) * scale
        rows = qv_profile((p, q), level, 1 << (level // 2)).rows
        assert rows[-1].value * scale == total
        blocks = [(b.value - a.value) * scale for a, b in zip(rows, rows[1:])]
        for v in [total] + blocks:
            assert v.a.denominator == v.b.denominator == 1
            assert abs(v.a) < bound and abs(v.b) < bound


def ints(v: QuadValue, level: int) -> tuple[int, int]:
    """A level sum (a + b*sqrt2) / 4**level as its integer pair (a, b)."""
    a, b = v.a * 4**level, v.b * 4**level
    assert a.denominator == b.denominator == 1
    return int(a), int(b)


class TestLevelIdentity:
    """The closed form across levels against the strided-view sums it replaced."""

    SPECS = BUILTIN_NAMES + ("bernoulli:1/3:5", "bernoulli:2/5:3", "bernoulli:0:1", "bernoulli:1/2:-9")

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_the_strided_oracle(self, seed, monkeypatch):
        rng = random.Random(seed)
        # narrow blocks send coarse levels through the oracle's own small grids
        monkeypatch.setattr(takagi, "BLOCK", rng.choice([2, 8, 64, 1 << 16]))
        x = fn(rng.choice(self.SPECS))
        y = x if rng.random() < 0.2 else fn(rng.choice(self.SPECS))
        k = rng.randint(0, 8)
        n = rng.randint(max(k, 1), 14)
        j = (0, 1 << k)[seed % 2] if seed < 8 else rng.randrange((1 << k) + 1)
        t = Dyadic(j, k)
        assert ints(qv_approx(x, n, t), n) == oracle_level_sums(oracle_square, (x,), n, t, n)[0]
        assert ints(cov_approx(x, y, n, t), n) == oracle_level_sums(_cross, (x, y), n, t, n)[0]
        assert ints(qv_of_sum(x, y, n, t), n) == oracle_level_sums(oracle_sum_square, (x, y), n, t, n)[0]
        lo = max(1, t.exp)
        rows = cov_profile(x, y, n, t).rows
        assert [r.level for r in rows] == list(range(lo, n + 1))
        assert [ints(r.value, r.level) for r in rows] == oracle_level_sums(_cross, (x, y), n, t, lo)
        study = counterexample_series(n, t)
        ap, am = fn("all_plus"), fn("alt_m")
        for name, kernel in (("cov", _cross), ("qv", oracle_sum_square)):
            both = [r for par in ("even", "odd") for r in getattr(study, f"{par}_{name}").rows]
            got = sorted(both, key=lambda r: r.level)
            want = oracle_level_sums(kernel, (ap, am), n, t, lo)
            assert [ints(r.value, r.level) for r in got] == want
        a, b = quadvar._profile_sums(x, n, 1 << (n - k))
        assert len(a) == (1 << k) + 1
        for i in {0, 1 << k, *(rng.randrange((1 << k) + 1) for _ in range(6))}:
            want = oracle_level_sums(oracle_square, (x,), n, Dyadic(i, k), n)[0]
            assert (a[i], b[i]) == want


class TestReadsOnlyTheCoarseGrid:
    def test_cov_profile_caches_no_row(self, monkeypatch):
        x, y = fn("bernoulli:1/3:7"), fn("bernoulli:2/3:8")
        reads = [thetas_reads(monkeypatch, f.scheme) for f in (x, y)]
        # t = 5/8 reads the level-3 grid, and so generations 0..2 whole; the
        # agreement of each generation m >= exp(t) reads its first t * 2**m
        for t, exp in ((F(1), 0), (F(5, 8), 3)):
            cov_profile(x, y, 18, t)
            want = {m: 1 << m if m < exp else int(t * (1 << m)) for m in range(18)}
            for got in reads:
                assert max(len(k) for _, k in got) <= takagi.BLOCK
                per_m = {m: 0 for m in range(18)}
                for m, k in got:
                    per_m[m] += len(k)
                assert per_m == want
                got.clear()

    @pytest.mark.parametrize("spec", ["alt_mk", "bernoulli:1/3:7"])
    def test_strided_profile_never_streams_the_fine_grid(self, spec, monkeypatch):
        f = fn(spec)
        levels, streamed = [], f._blocks

        def recording(level):
            levels.append(level)
            return streamed(level)

        monkeypatch.setattr(f, "_blocks", recording)
        reads = thetas_reads(monkeypatch, f.scheme)
        qv_profile(f, 20, 1 << 12)
        assert levels == [8]
        assert [(m, len(k)) for m, k in reads] == [(m, 1 << m) for m in range(8)]


class TestConstantGenerations:
    """Schemes whose generations are constant (``scheme.constant(m)``), negated
    ones included, sum their agreement in closed form: no coefficient is read
    past the depth probe."""

    @pytest.fixture
    def no_thetas(self, monkeypatch):
        def fail(self, m, k):
            raise AssertionError(f"thetas({m}) read by {self.spec}")

        for cls in vars(schemes).values():
            if isinstance(cls, type) and "thetas" in vars(cls):
                monkeypatch.setattr(cls, "thetas", fail)

    @pytest.mark.parametrize("t", [F(1), F(5, 8), F(3, 16)])
    def test_negated_all_plus_with_alt_m(self, t, no_thetas):
        x, y = TakagiFunction(AllPlus().negated()), fn("alt_m")
        for n in (4, 9, 14):
            assert cov_approx(x, y, n, t) == oracle_cov_approx(x, y, n, t)
            lo = max(1, Dyadic.coerce(t).exp)
            rows = cov_profile(x, y, n, t).rows
            assert [ints(r.value, r.level) for r in rows] == oracle_level_sums(_cross, (x, y), n, t, lo)


class TestPolarization:
    """The qv of a sum, [x] + [y] + 2[x, y] added as integer pairs, against the
    direct square of the x + y increments (``oracle_sum_square``)."""

    SPECS = BUILTIN_NAMES + ("bernoulli:1/3:5", "bernoulli:2/5:3")
    #: t on coarse grids, and on the level-9 grid
    TIMES = [F(0), F(1), F(3, 4), F(37, 512), F(511, 512)]

    @pytest.fixture(params=[2, 8, 64])
    def width(self, request, monkeypatch):
        monkeypatch.setattr(takagi, "BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("i", range(len(SPECS)))
    def test_class_members(self, width, i):
        x = fn(self.SPECS[i])
        # itself, the same spec built again, and two other schemes
        for y in (x, fn(self.SPECS[i]), fn(self.SPECS[i - 1]), fn(self.SPECS[i - 3])):
            for t in self.TIMES:
                want = oracle_level_sums(oracle_sum_square, (x, y), 9, t, 9)[0]
                assert ints(qv_of_sum(x, y, 9, t), 9) == want

    @pytest.mark.parametrize("t", TIMES)
    def test_counterexample_qv_rows(self, width, t):
        n = 11
        lo = max(1, Dyadic.from_fraction(t).exp)
        study = counterexample_series(n, t)
        rows = sorted(study.even_qv.rows + study.odd_qv.rows, key=lambda r: r.level)
        want = oracle_level_sums(oracle_sum_square, (fn("all_plus"), fn("alt_m")), n, t, lo)
        assert [ints(r.value, r.level) for r in rows] == want

    @pytest.mark.parametrize("level", [9, 10])
    def test_pair_grids(self, width, level):
        f, g = fn("all_plus"), fn("bernoulli:1/3:5")
        saw = TestBoundedVariationPerturbation.sawtooth_pairs(level)
        fp, gp = f.grid_pairs(level), g.grid_pairs(level)
        for x, y in ((fp, saw), (saw, saw), (saw, fp), (gp, f), (f, saw), (fp, gp)):
            for t in self.TIMES:
                want = oracle_level_sums(oracle_sum_square, (x, y), level, t, level)[0]
                assert ints(qv_of_sum(x, y, level, t), level) == want


class TestCrossKernel:
    """``_cross`` of one increment pair with itself takes three int64 dot products."""

    @staticmethod
    def dots(monkeypatch):
        seen, dot = [], np.dot
        monkeypatch.setattr(np, "dot", lambda a, b: seen.append(1) or dot(a, b))
        return seen

    def test_self_pair(self, monkeypatch):
        rng = np.random.default_rng(3)
        d, e = ((rng.integers(-99, 100, 50), rng.integers(-99, 100, 50)) for _ in range(2))
        square, sum_square = oracle_square(d), oracle_sum_square(d, e)
        dots = self.dots(monkeypatch)
        assert _cross(d, d) == square
        assert len(dots) == 3
        # equal increments in another tuple take the general four
        assert _cross(d, (d[0].copy(), d[1].copy())) == square
        assert len(dots) == 3 + 4
        dots.clear()
        (ax, bx), (ay, by), (ac, bc) = _cross(d, d), _cross(e, e), _cross(d, e)
        assert len(dots) == 10
        assert (ax + ay + 2 * ac, bx + by + 2 * bc) == sum_square

    def test_sums_per_block(self, monkeypatch):
        x, y = fn("half_split").grid_pairs(5), fn("alt_mk").grid_pairs(5)
        want = [oracle_level_sums(oracle_square, (x,), 5, 1, 5)[0],
                oracle_level_sums(oracle_sum_square, (x, y), 5, 1, 5)[0]]
        dots = self.dots(monkeypatch)
        assert ints(qv_approx(x, 5, 1), 5) == want[0]
        assert len(dots) == 3
        assert ints(qv_of_sum(x, y, 5, 1), 5) == want[1]
        assert len(dots) == 3 + 10


class TestOneReadPerGrid:
    """A sum reads each grid it needs once, however many covariations it takes from it."""

    @staticmethod
    def calls(monkeypatch, owner, name):
        seen, original = [], getattr(owner, name)

        def counting(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
        return seen

    def test_class_members(self, monkeypatch):
        reads = self.calls(monkeypatch, TakagiFunction, "_blocks")
        x, y = fn("half_split"), fn("bernoulli:1/3:5")
        for call, grids in ((lambda: counterexample_series(12, F(5, 8)), 2),
                            (lambda: qv_of_sum(x, y, 14, F(37, 128)), 2),
                            (lambda: qv_approx(x, 14, F(37, 128)), 1)):
            reads.clear()
            call()
            assert len(reads) == grids

    def test_pair_grids(self, monkeypatch):
        x, y = fn("all_plus").grid_pairs(17), fn("alt_mk").grid_pairs(17)
        reads = self.calls(monkeypatch, quadvar, "grid_blocks")
        assert ints(qv_of_sum(x, y, 17, 1), 17) == oracle_level_sums(oracle_sum_square, (x, y), 17, 1, 17)[0]
        assert len(reads) == 2


def test_pair_grid_of_wrong_length_refused_everywhere():
    """Every entry point that takes a pair grid refuses one of the wrong length alike."""
    f, g = fn("all_plus"), RationalPolynomial.parse("1,-2,3")
    for n in (0, 1, 8, 10, 17):
        a = np.arange(n, dtype=np.int64)
        grid = (a, a)
        calls = [
            lambda: qv_approx(grid, 3, 1),
            lambda: cov_approx(f, grid, 3, F(1, 2)),
            lambda: qv_of_sum(grid, f, 3, 1),
            lambda: qv_profile(grid, 3, 2),
            lambda: follmer_sum(g, grid, 3, 1),
            lambda: time_sum(g, grid, 3, F(3, 8)),
            lambda: ito_residual(g, grid, 3, 1),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "pair grid has wrong length for this level"


class TestEqualSchemes:
    """Two schemes with the same coefficients sum their agreement in closed form."""

    @staticmethod
    def agreement_reads(monkeypatch, t, *schemes):
        """The thetas calls, from now on, past the grid of level exp(t): the agreement's."""
        reads = [thetas_reads(monkeypatch, s) for s in schemes]
        return lambda: [m for got in reads for m, _ in got if m >= Dyadic.coerce(t).exp]

    @pytest.mark.parametrize("spec", ALL_SCHEMES + ("bernoulli:1/3:7",))
    def test_equal_specs(self, spec, monkeypatch):
        x, y = fn(spec), fn(spec)
        want = {t: [oracle_cov_approx(x, y, n, t) for n in range(3, 11)] for t in (F(1), F(3, 8))}
        for t, values in want.items():
            read = self.agreement_reads(monkeypatch, t, x.scheme, y.scheme)
            assert [r.value for r in cov_profile(x, y, 10, t).rows if r.level >= 3] == values
            assert cov_approx(x, y, 10, t) == qv_approx(x, 10, t) == values[-1]
            assert read() == []

    @staticmethod
    def tables(depth):
        plus = {(m, k): 1 for m in range(depth) for k in range(1 << m)}
        return plus, {**plus, (4, 3): -1, (5, 20): -1}

    def test_explicit_tables_with_one_spec(self, monkeypatch):
        plus, other = self.tables(7)
        x, y, z = (TakagiFunction(Explicit(tab, 7)) for tab in (plus, other, dict(plus)))
        assert x.scheme.spec == y.scheme.spec == z.scheme.spec
        for t in (F(1), F(5, 8)):
            # different coefficients behind one spec are summed, not taken in closed form
            assert cov_approx(x, y, 7, t) == oracle_cov_approx(x, y, 7, t) != qv_approx(x, 7, t)
        want = oracle_cov_approx(x, z, 7, F(5, 8))
        read = self.agreement_reads(monkeypatch, F(5, 8), x.scheme, z.scheme)
        assert cov_approx(x, z, 7, F(5, 8)) == want
        assert read() == []

    def test_depth_errors_unchanged(self):
        plus, _ = self.tables(6)
        x, y = TakagiFunction(Explicit(plus, 6)), TakagiFunction(Explicit(dict(plus), 6))
        assert cov_approx(x, y, 6, 1) == qv_approx(x, 6, 1)
        with pytest.raises(SchemeDepthError):
            cov_approx(x, y, 7, 1)
