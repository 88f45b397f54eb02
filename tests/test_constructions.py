"""Tests for transform sampling: layouts, value sets, statistics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlproj import constructions
from jlproj.apply import distortion
from jlproj.constructions import (
    MAX_DENSE_ENTRIES,
    DenseTransform,
    ResourceLimitError,
    SparseColumnLayout,
    check_transform_budget,
    sample_transform,
)
from jlproj.core import (
    AchlioptasSparse,
    DenseGaussian,
    GraphSparse,
    Rademacher,
    SeedSpec,
    derive_stream,
    sample_unit_sphere_batch,
    sample_without_replacement,
)

ALL_KINDS = [DenseGaussian(), Rademacher(), AchlioptasSparse(), GraphSparse(8)]


class TestGraphSparseLayout:
    def test_column_sparsity_exact(self):
        """Every column stores exactly s strictly increasing rows (k=50, s=16)."""
        layout = sample_transform(GraphSparse(16), 50, 10000, SeedSpec(0, 0))
        assert layout.rows.shape == (10000, 16)
        assert np.all(layout.rows >= 0) and np.all(layout.rows < 50)
        assert np.all(np.diff(layout.rows, axis=1) > 0)
        assert set(np.unique(layout.signs)) == {-1.0, 1.0}
        assert layout.scale == 1.0 / 4.0

    def test_full_density_when_s_equals_k(self):
        layout = sample_transform(GraphSparse(12), 12, 300, SeedSpec(0, 1))
        assert np.array_equal(layout.rows, np.tile(np.arange(12), (300, 1)))

    def test_s_larger_than_k_rejected(self):
        with pytest.raises(ValueError, match=r"^column sparsity s=10 exceeds k=9$"):
            sample_transform(GraphSparse(10), 9, 100, SeedSpec(0, 2))

    def test_determinism(self):
        a = sample_transform(GraphSparse(4), 20, 50, SeedSpec(3, 3))
        b = sample_transform(GraphSparse(4), 20, 50, SeedSpec(3, 3))
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.signs, b.signs)

    @pytest.mark.parametrize(
        "s,rows,signs,match",
        [
            (2, [[0, 99], [1, 2], [3, 4]], [[1, 1], [1, 1], [1, 1]], r"row index outside \[0, 10\)"),
            (2, [[1, 1], [1, 2], [3, 4]], [[1, 3], [1, 1], [1, 1]], "strictly increasing"),
            (2, [[0, 1], [1, 2], [3, 4]], [[1, 3], [1, 1], [1, -1]], "signs"),
            (2, [[0, 1], [1, 2]], [[1, 1], [1, 1]], "shape"),
            (11, [[0] * 11] * 3, [[1] * 11] * 3, "1 <= s <= k"),
            (0, [[]] * 3, [[]] * 3, r"^need d >= 1 and 1 <= s <= k, got d=3, s=0, k=10$"),
        ],
        ids=["row-outside-k", "duplicate-rows-and-sign-3", "sign-3", "wrong-shape", "s-above-k", "s-zero"],
    )
    def test_invalid_layout_built_in_code_rejected(self, s, rows, signs, match):
        with pytest.raises(ValueError, match=match):
            SparseColumnLayout(k=10, d=3, s=s, rows=np.array(rows), signs=np.array(signs, dtype=np.float64))

    def test_layout_without_columns_rejected(self):
        """d = 0 is refused before the empty rows are inspected."""
        empty = np.zeros((0, 2))
        with pytest.raises(ValueError, match=r"^need d >= 1 and 1 <= s <= k, got d=0, s=2, k=10$"):
            SparseColumnLayout(k=10, d=0, s=2, rows=empty.astype(np.int64), signs=empty)

    def test_valid_layout_built_in_code_accepted(self):
        rows = np.array([[0, 9], [1, 2], [3, 4]])
        signs = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]])
        layout = SparseColumnLayout(k=10, d=3, s=2, rows=rows, signs=signs)
        assert layout.rows is rows and layout.signs is signs
        assert layout.scale == 1.0 / math.sqrt(2)

    def test_draw_convention(self):
        """All column row-subsets first, then a (d, s) block of integers(0, 2)
        signs mapped 1 -> +1 and 0 -> -1."""
        k, s, d = 20, 5, 30
        rng = derive_stream(SeedSpec(6, 1))
        rows = sample_without_replacement(k, s, rng, count=d)
        signs = np.where(rng.integers(0, 2, size=(d, s)) == 1, 1.0, -1.0)
        layout = sample_transform(GraphSparse(s), k, d, SeedSpec(6, 1))
        assert np.array_equal(layout.rows, rows)
        assert np.array_equal(layout.signs, signs)

    @given(
        k=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_layout_satisfies_its_invariants(self, k, d, seed, data):
        """A sampled layout rebuilt from its own fields passes construction's checks."""
        s = data.draw(st.integers(min_value=1, max_value=k))
        layout = sample_transform(GraphSparse(s), k, d, SeedSpec(seed, 0))
        assert (layout.k, layout.d, layout.s) == (k, d, s)
        assert layout.rows.shape == layout.signs.shape == (d, s)
        assert layout.signs.dtype == np.float64
        SparseColumnLayout(k=k, d=d, s=s, rows=layout.rows.copy(), signs=layout.signs.copy())

    def test_sampled_layout_is_read_only(self):
        layout = sample_transform(GraphSparse(3), 10, 20, SeedSpec(6, 2))
        assert not layout.rows.flags.writeable and not layout.signs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            layout.signs[0, 0] = 1.0

    def test_layout_budget_counts_d_times_s(self):
        """The graph construction stores d * s entries, so k * d above the
        budget passes and d * s above it is refused."""
        check_transform_budget(GraphSparse(16), 1 << 20, 1 << 20)
        d = (MAX_DENSE_ENTRIES >> 4) + 1
        with pytest.raises(ResourceLimitError, match=rf"^graph layout of {d}x16 entries exceeds the "):
            check_transform_budget(GraphSparse(16), 1 << 20, d)


class TestDenseKinds:
    def test_rademacher_value_set(self):
        t = sample_transform(Rademacher(), 10, 40, SeedSpec(1, 0))
        assert set(np.unique(t.entries)) == {-1.0 / math.sqrt(10), 1.0 / math.sqrt(10)}

    def test_rademacher_signs_when_kd_is_not_a_multiple_of_8(self):
        """k*d = 21: every entry is exactly +-1/sqrt(k), and over 10^5
        entries the +1 share is within 4 SE of 1/2."""
        k, d = 3, 7
        scale = 1.0 / np.sqrt(k)
        trials = -(-(10**5) // (k * d))
        blocks = np.stack([sample_transform(Rademacher(), k, d, SeedSpec(5, i)).entries for i in range(trials)])
        assert np.all((blocks == scale) | (blocks == -scale))
        assert abs(np.mean(blocks > 0) - 0.5) <= 4.0 * math.sqrt(0.25 / blocks.size)

    def test_rademacher_draw_convention(self):
        """ceil(k*d/8) bytes, unpacked most significant bit first in
        row-major order; bit 1 -> +1/sqrt(k), bit 0 -> -1/sqrt(k)."""
        k, d = 3, 7
        raw = derive_stream(SeedSpec(5, 0)).integers(0, 256, size=3, dtype=np.uint8)
        bits = [(int(byte) >> (7 - i)) & 1 for byte in raw for i in range(8)][: k * d]
        expected = np.array([1.0 if b else -1.0 for b in bits]).reshape(k, d) / np.sqrt(k)
        assert np.array_equal(sample_transform(Rademacher(), k, d, SeedSpec(5, 0)).entries, expected)

    def test_achlioptas_value_set_and_zero_fraction(self):
        """Values in {0, +-sqrt(3/k)}; zero fraction within 4 SE of 2/3."""
        k, d = 100, 1000
        t = sample_transform(AchlioptasSparse(), k, d, SeedSpec(1, 1))
        v = math.sqrt(3.0 / k)
        assert set(np.unique(t.entries)) <= {-v, 0.0, v}
        zero_fraction = np.mean(t.entries == 0.0)
        se = math.sqrt((2.0 / 9.0) / (k * d))
        assert abs(zero_fraction - 2.0 / 3.0) <= 4.0 * se

    def test_achlioptas_byte_map(self, monkeypatch):
        """Bytes 0..5 map to +sqrt(3/k), -sqrt(3/k) and four +0.0 (never -0.0)."""

        class EveryByte:
            def integers(self, low, high, size, dtype):
                assert (low, high, dtype) == (0, 6, np.uint8)
                return np.broadcast_to(np.arange(6, dtype=np.uint8), size).copy()

        monkeypatch.setattr(constructions, "derive_stream", lambda seed: EveryByte())
        k = 3
        entries = sample_transform(AchlioptasSparse(), k, 6, SeedSpec(0, 0)).entries
        v = np.sqrt(3.0 / k)
        for row in entries:
            assert list(row) == [v, -v, 0.0, 0.0, 0.0, 0.0]
            assert not np.signbit(row[2:]).any()

    def test_peak_memory_of_the_achlioptas_draw(self):
        """At most 9 bytes per entry (the bytes and the float64 entries) + 1 MiB."""
        k, d = 400, 10_000
        tracemalloc.start()
        try:
            sample_transform(AchlioptasSparse(), k, d, SeedSpec(0, 0)).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * k * d + (1 << 20)

    def test_gaussian_moments(self):
        """Entry mean ~0 and variance ~1/k at 4 SE over 1e5 entries."""
        k, d = 100, 1000
        t = sample_transform(DenseGaussian(), k, d, SeedSpec(1, 2))
        n = k * d
        assert abs(t.entries.mean()) <= 4.0 / math.sqrt(n * k)
        assert abs(t.entries.var() - 1.0 / k) <= 4.0 * (1.0 / k) * math.sqrt(2.0 / n)

    def test_gaussian_draw_convention(self):
        """One (k, d) standard_normal block divided by sqrt(k)."""
        k, d = 7, 11
        expected = derive_stream(SeedSpec(5, 1)).standard_normal((k, d)) / np.sqrt(k)
        assert np.array_equal(sample_transform(DenseGaussian(), k, d, SeedSpec(5, 1)).entries, expected)

    def test_achlioptas_draw_convention(self):
        """One (k, d) block of integers(0, 6, dtype=uint8) bytes: 0 -> +sqrt(3/k),
        1 -> -sqrt(3/k), the rest -> 0."""
        k, d = 7, 11
        u = derive_stream(SeedSpec(5, 2)).integers(0, 6, size=(k, d), dtype=np.uint8)
        v = np.sqrt(3.0 / k)
        expected = np.where(u == 0, v, np.where(u == 1, -v, 0.0))
        assert np.array_equal(sample_transform(AchlioptasSparse(), k, d, SeedSpec(5, 2)).entries, expected)

    @pytest.mark.parametrize("kind", ALL_KINDS[:3], ids=lambda k: type(k).__name__)
    def test_entries_are_read_only_and_kept(self, kind):
        t = sample_transform(kind, 4, 9, SeedSpec(5, 3))
        entries = t.entries
        assert t.entries is entries
        assert not entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            entries[0, 0] = 0.0

    @pytest.mark.parametrize("k,d", [(0, 5), (5, 0)])
    def test_invalid_shapes(self, k, d):
        with pytest.raises(ValueError):
            sample_transform(DenseGaussian(), k, d, SeedSpec(0, 0))

    def test_entries_must_match_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3, 4\)"):
            DenseTransform(k=3, d=4, entries=np.zeros((4, 3)), kind=DenseGaussian())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_entries_must_be_finite(self, bad):
        entries = np.zeros((3, 4))
        entries[1, 2] = bad
        with pytest.raises(ValueError, match=r"^entries must be finite$"):
            DenseTransform(k=3, d=4, entries=entries, kind=DenseGaussian())

    def test_entries_or_seed_needed(self):
        with pytest.raises(ValueError, match=r"^a dense transform needs its entries or the seed to draw them from$"):
            DenseTransform(k=3, d=4, entries=None, kind=DenseGaussian())

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError, match=r"^unknown construction kind: GraphSparse\(s=2\)$"):
            DenseTransform(k=3, d=4, entries=None, kind=GraphSparse(2), seed=SeedSpec(0, 0))

    def test_dense_entry_budget(self):
        with pytest.raises(ResourceLimitError):
            sample_transform(DenseGaussian(), 1 << 16, (MAX_DENSE_ENTRIES >> 16) + 1, SeedSpec(0, 0))

    def test_determinism_and_stream_separation(self):
        a = sample_transform(DenseGaussian(), 8, 16, SeedSpec(2, 0))
        b = sample_transform(DenseGaussian(), 8, 16, SeedSpec(2, 0))
        c = sample_transform(DenseGaussian(), 8, 16, SeedSpec(2, 1))
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)


class TestSampleTransformChecks:
    @pytest.mark.parametrize("k,d", [(0, 4), (3, 0)])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
    def test_non_positive_shape_rejected(self, kind, k, d):
        """The shape is checked first, also for a graph construction whose s exceeds k = 0."""
        with pytest.raises(ValueError, match=rf"^transform shape must be positive, got k={k}, d={d}$"):
            sample_transform(kind, k, d, SeedSpec(0, 0))


class TestRowSampling:
    def test_full_subset_is_identity(self):
        rng = derive_stream(SeedSpec(0, 0))
        assert np.array_equal(sample_without_replacement(5, 5, rng, count=1)[0], np.arange(5))

    def test_rejects_oversized_subset(self):
        rng = derive_stream(SeedSpec(0, 0))
        with pytest.raises(ValueError):
            sample_without_replacement(2, 3, rng, count=1)

    def test_single_row_marginal(self):
        """k=2, s=1: row 0 frequency within 4 SE of 1/2 over 1e5 draws."""
        rng = derive_stream(SeedSpec(4, 0))
        draws = sample_without_replacement(2, 1, rng, count=100_000)
        freq = np.mean(draws[:, 0] == 0)
        assert abs(freq - 0.5) <= 4.0 * math.sqrt(0.25 / 100_000)

    def test_pair_subsets_uniform(self):
        """k=6, s=2: each of the C(6,2)=15 subsets within 4 SE of 1/15."""
        rng = derive_stream(SeedSpec(4, 1))
        n = 100_000
        draws = sample_without_replacement(6, 2, rng, count=n)
        pairs = list(itertools.combinations(range(6), 2))
        assert len(pairs) == 15
        codes = draws[:, 0] * 6 + draws[:, 1]
        p = 1.0 / 15.0
        se = math.sqrt(p * (1 - p) / n)
        for a, b in pairs:
            freq = np.mean(codes == a * 6 + b)
            assert abs(freq - p) <= 4.0 * se

    @given(
        k=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sorted_distinct_in_range(self, k, seed, data):
        s = data.draw(st.integers(min_value=1, max_value=k))
        rows = sample_without_replacement(k, s, derive_stream(SeedSpec(seed, 0)), count=1)[0]
        assert rows.size == s
        assert np.all((rows >= 0) & (rows < k))
        if s > 1:
            assert np.all(np.diff(rows) > 0)


class TestNnz:
    def test_rademacher_fully_dense(self):
        assert np.count_nonzero(sample_transform(Rademacher(), 10, 10, SeedSpec(0, 6)).entries) == 100

    def test_achlioptas_binomial(self):
        """Nonzero count within 4 SE of (1/3) k d."""
        t = sample_transform(AchlioptasSparse(), 100, 100, SeedSpec(0, 7))
        n = 100 * 100
        se = math.sqrt(n * (1.0 / 3.0) * (2.0 / 3.0))
        assert abs(np.count_nonzero(t.entries) - n / 3.0) <= 4.0 * se


class TestUnbiasedness:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
    def test_mean_squared_norm_is_one(self, kind):
        """Grand mean of delta over instances x sphere vectors within 4 SE of 0."""
        d, n_vectors, instances = 400, 400, 5
        vectors = sample_unit_sphere_batch(d, n_vectors, SeedSpec(21, 0))
        deltas = []
        for i in range(instances):
            transform = sample_transform(kind, 50, d, SeedSpec(21, 1 + i))
            deltas.extend(distortion(transform, x) for x in vectors)
        deltas = np.array(deltas)
        se = deltas.std(ddof=1) / math.sqrt(deltas.size)
        assert abs(deltas.mean()) <= 4.0 * se

