from fractions import Fraction as F

import numpy as np
import pytest

from takagiqv.schemes import (
    BUILTIN_NAMES,
    Bernoulli,
    CoefficientScheme,
    Explicit,
    HalfSplit,
    NegHalfSplit,
    SchemeDepthError,
    parse_exact_fraction,
    parse_scheme,
    splitmix64,
)


class TestNamedSchemes:
    def test_all_plus(self):
        assert parse_scheme("all_plus").theta(3, 5) == 1

    def test_alt_m(self):
        assert parse_scheme("alt_m").theta(3, 0) == -1
        assert parse_scheme("alt_m").theta(2, 3) == 1

    def test_alt_mk(self):
        s = parse_scheme("alt_mk")
        assert s.theta(2, 1) == -1
        assert s.theta(3, 1) == 1

    def test_half_split(self):
        s = parse_scheme("half_split")
        assert s.theta(0, 0) == 1
        assert s.theta(2, 1) == 1
        assert s.theta(2, 2) == -1

    def test_neg_half_split_flips_everything(self):
        a = parse_scheme("half_split")
        b = parse_scheme("neg_half_split")
        for m in range(5):
            assert np.array_equal(a.row(m), -b.row(m))

    def test_neg_half_split_is_the_negated_half_split(self):
        neg = NegHalfSplit()
        assert neg.spec == parse_scheme("neg_half_split").spec == "neg_half_split"
        for m in range(11):
            assert np.array_equal(neg.row(m), -HalfSplit().row(m))
        assert isinstance(neg.negated(), HalfSplit)

    def test_block(self):
        s = parse_scheme("block:5")
        assert s.theta(4, 0) == 1
        assert s.theta(5, 0) == -1
        assert s.theta(10, 3) == 1

    @pytest.mark.parametrize("spec", BUILTIN_NAMES)
    def test_rows_match_scalar_queries(self, spec):
        s = parse_scheme(spec)
        for m in range(6):
            row = s.row(m)
            assert row.shape == (1 << m,)
            assert all(row[k] == s.theta(m, k) for k in range(1 << m))

    @pytest.mark.parametrize("spec", BUILTIN_NAMES + ("bernoulli:1/3:7", "bernoulli:1:2", "bernoulli:0:2"))
    @pytest.mark.parametrize("m", [0, 1, 5, 63, 64])
    def test_thetas_match_rows_and_scalar_queries(self, spec, m):
        s = parse_scheme(spec)
        for negate in (False, True):
            rng = np.random.default_rng(m)
            k = rng.integers(0, 1 << min(m, 63), 64)
            if m >= 63:
                k[:2] = 0, (1 << 63) - 1
            expected = np.array([s.theta(m, int(j)) for j in k])
            if m < 63:  # rows of 2**63 entries cannot be built
                assert np.array_equal(s.row(m)[k], expected)
            got = s.thetas(m, k)
            assert got.dtype == np.int64 and np.array_equal(got, expected)
            s = s.negated()

    def test_out_of_range(self):
        s = parse_scheme("all_plus")
        with pytest.raises(ValueError):
            s.theta(2, 4)
        with pytest.raises(ValueError):
            s.theta(2, -1)
        with pytest.raises(ValueError):
            s.theta(-1, 0)

    @pytest.mark.parametrize("spec", ["half_split", "alt_mk", "bernoulli:1/3:7"])
    def test_negated_fresh_row(self, spec):
        inner = parse_scheme(spec)
        neg = inner.negated()
        for m in range(12):
            row = neg.row(m)
            assert row.dtype == np.int64 and row.flags.writeable
            assert np.array_equal(row, -inner.row(m))
            assert row.tolist() == [neg.theta(m, k) for k in range(1 << m)]

    def test_negated_involution(self):
        s = parse_scheme("alt_mk")
        assert s.negated().negated() is s
        assert s.negated().theta(3, 2) == -s.theta(3, 2)


def _explicit(depth: int) -> Explicit:
    b = Bernoulli(F(1, 2), seed=3)
    return Explicit({(m, k): b.theta(m, k) for m in range(depth) for k in range(1 << m)}, depth)


class TestConstant:
    """constant(m), when not None, is the coefficient of every k of generation m,
    and row/theta/thetas derive from it."""

    CONSTANT = ("all_plus", "alt_m", "block:5", "bernoulli:0:3", "bernoulli:1:3")

    @pytest.mark.parametrize("spec", BUILTIN_NAMES + ("bernoulli:0:3", "bernoulli:1/3:7", "bernoulli:1:3", "explicit"))
    @pytest.mark.parametrize("negate", [False, True])
    def test_contract(self, spec, negate):
        s = _explicit(12) if spec == "explicit" else parse_scheme(spec)
        if negate:
            s = s.negated()
        for m in range(12):
            c = s.constant(m)
            assert (c is not None) == (spec in self.CONSTANT)
            if c is None:
                continue
            row = s.row(m)
            assert row.strides == (0,) and not row.flags.writeable
            assert row.tolist() == [c] * (1 << m)
            assert [s.theta(m, k) for k in range(1 << m)] == [c] * (1 << m)
            got = s.thetas(m, np.arange(1 << m, dtype=np.int64))
            assert got.dtype == np.int64 and got.flags.writeable and got.tolist() == [c] * (1 << m)

    def test_base_thetas_reads_only_the_indices_asked_for(self, monkeypatch):
        class OnlyTheta(CoefficientScheme):
            spec = "only_theta"

            def theta(self, m, k):
                return -1 if k % 3 else 1

        def fail(m):
            raise AssertionError(f"row({m}) built")

        s = OnlyTheta()
        monkeypatch.setattr(s, "row", fail)
        k = np.array([0, 1, 3, 5, (1 << 40) - 1], dtype=np.int64)
        got = s.thetas(40, k)
        assert got.dtype == np.int64 and got.tolist() == [s.theta(40, int(j)) for j in k]


class TestBernoulli:
    def test_reproducible(self):
        a = Bernoulli(F(1, 2), seed=42)
        b = Bernoulli(F(1, 2), seed=42)
        assert np.array_equal(a.row(10), b.row(10))

    def test_seed_sensitivity(self):
        a = Bernoulli(F(1, 2), seed=1)
        b = Bernoulli(F(1, 2), seed=2)
        assert not np.array_equal(a.row(10), b.row(10))

    def test_degenerate_probabilities(self):
        assert np.all(Bernoulli(F(1), 7).row(8) == 1)
        assert np.all(Bernoulli(F(0), 7).row(8) == -1)

    def test_frequency(self):
        row = Bernoulli(F(1, 2), seed=3).row(14)
        assert abs(float(np.mean(row))) < 0.05
        row = Bernoulli(F(1, 4), seed=3).row(14)
        assert abs(float(np.mean(row)) - (-0.5)) < 0.05

    def test_parse(self):
        s = parse_scheme("bernoulli:1/4:42")
        assert s.spec == "bernoulli:1/4:42"
        assert s.theta(5, 11) in (-1, 1)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            Bernoulli(F(3, 2), seed=0)

    @pytest.mark.parametrize("seed", [0, 42, -1, -3, 2**63 - 1, -(2**63 - 1), -(2**63)])
    @pytest.mark.parametrize("p_plus", [F(0), F(1, 3), F(1, 2), F(2, 5), F(1)])
    def test_rows_match_theta(self, p_plus, seed):
        s = Bernoulli(p_plus, seed)
        for m in range(13):
            row = s.row(m)
            assert row.dtype == np.int64
            assert row.tolist() == [s.theta(m, k) for k in range(1 << m)]

    def test_splitmix64_published_vector(self):
        assert [splitmix64(1234567, i) for i in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_coefficients_read_the_seeded_stream(self):
        # coefficient (m, k) is word 2**m - 1 + k of the stream at seed mod 2**64
        s = Bernoulli(F(1, 2), -5)
        for m, k in [(0, 0), (3, 5), (10, 1000), (64, 3)]:
            u = splitmix64(2**64 - 5, (1 << m) - 1 + k)
            assert s.theta(m, k) == (1 if u < 1 << 63 else -1)

    def test_deep_generations_do_not_alias(self):
        # taken mod 2**64, index 2**64 - 1 + k of generation 64 would be k - 1
        shallow = {splitmix64(7, i) for i in range((1 << 9) - 1)}
        deep = [splitmix64(7, (1 << m) - 1 + k) for m in (64, 65) for k in range(256)]
        assert len(set(deep)) == len(deep)
        assert shallow.isdisjoint(deep)

    def test_frequency_within_binomial_bound(self):
        n, p = 1 << 16, F(1, 3)
        plus = int(np.count_nonzero(Bernoulli(p, seed=11).row(16) == 1))
        # five standard deviations of Binomial(n, 1/3)
        assert abs(plus - n * p) < 5 * (n * p * (1 - p)) ** 0.5

    def test_seed_range(self):
        for seed in (-(2**63), 2**63 - 1):
            assert Bernoulli(F(1, 2), seed).row(3).shape == (8,)
        for seed in (2**63, -(2**63) - 1, 99999999999999999999999):
            with pytest.raises(ValueError):
                Bernoulli(F(1, 2), seed)


class TestExplicit:
    def make(self, depth=3):
        table = {}
        for m in range(depth):
            for k in range(1 << m):
                table[(m, k)] = 1 if (m + k) % 2 == 0 else -1
        return Explicit(table, depth)

    def test_query(self):
        s = self.make()
        assert s.theta(2, 1) == -1

    def test_depth_error(self):
        s = self.make(depth=3)
        with pytest.raises(SchemeDepthError):
            s.theta(3, 0)
        with pytest.raises(SchemeDepthError):
            s.thetas(3, np.array([0]))

    def test_thetas(self):
        s = self.make(depth=4)
        k = np.array([5, 0, 7, 5])
        assert s.thetas(3, k).tolist() == [s.theta(3, int(j)) for j in k]

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            Explicit({(0, 0): 1}, depth=2)
        with pytest.raises(ValueError):
            Explicit({(0, 0): 2}, depth=1)

    def test_file_round_trip(self, tmp_path):
        s = self.make(depth=4)
        path = tmp_path / "scheme.txt"
        s.save(path)
        loaded = parse_scheme(f"file:{path}")
        assert loaded.depth == 4
        for m in range(4):
            assert np.array_equal(loaded.row(m), s.row(m))

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 +1\n")
        with pytest.raises(ValueError):
            Explicit.load(path)
        path.write_text("depth 1\n0 0 maybe\n")
        with pytest.raises(ValueError):
            Explicit.load(path)

    @pytest.mark.parametrize("text", [
        "depth 2\n0 0 +1\n1 0 +1\n1 1 -1\n1 0 -1\n",  # duplicate (1, 0)
        "depth 2\n0 0 +1\n1 0 +1\n1 1 -1\n2 0 +1\n",  # m >= depth
        "depth 2\n0 0 +1\n1 0 +1\n1 1 -1\n1 2 +1\n",  # k >= 2**m
        "depth 1\n0 -1 +1\n0 0 +1\n",  # k < 0
        "depth\n0 0 +1\n",
        "depth 1 2\n0 0 +1\n",
        "",
    ])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            Explicit.load(path)

    def test_indented_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scheme.txt"
        path.write_text("  # header\ndepth 2\n\n0 0 +1\n   # note\n1 0 1\n\t1 1 -1\n")
        loaded = Explicit.load(path)
        assert loaded.table == {(0, 0): 1, (1, 0): 1, (1, 1): -1}


def test_parse_rejects_unknown():
    for bad in ("nonsense", "block", "bernoulli:1/2", "all_plus:3"):
        with pytest.raises(ValueError):
            parse_scheme(bad)


def test_parse_exact_fraction():
    assert parse_exact_fraction("3/4") == F(3, 4)
    assert parse_exact_fraction("-2") == F(-2)
    for bad in ("0.5", "1e-3", "a/b", "1/2/3", "1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError):
            parse_exact_fraction(bad)


def test_same_coefficients():
    for a, b in [("all_plus", "all_plus"), ("block:5", "block:05"), ("neg_half_split", "neg_half_split"),
                 ("bernoulli:1/3:7", "bernoulli:2/6:7")]:
        assert parse_scheme(a).same_coefficients(parse_scheme(b)), (a, b)
    for a, b in [("all_plus", "alt_m"), ("block:5", "block:6"), ("half_split", "neg_half_split"),
                 ("bernoulli:1/3:7", "bernoulli:1/3:8"), ("bernoulli:1/3:7", "bernoulli:1/4:7")]:
        assert not parse_scheme(a).same_coefficients(parse_scheme(b)), (a, b)
    plus = {(m, k): 1 for m in range(3) for k in range(1 << m)}
    x, y, z = Explicit(plus, 3), Explicit({**plus, (2, 1): -1}, 3), Explicit(dict(plus), 3)
    assert x.spec == y.spec and not x.same_coefficients(y) and x.same_coefficients(z)
    assert not x.same_coefficients(Explicit(plus | {(3, k): 1 for k in range(8)}, 4))
    # negations compare what they negate, not their specs
    assert x.negated().spec == y.negated().spec
    assert not x.negated().same_coefficients(y.negated())
    assert x.negated().same_coefficients(z.negated())
