"""Tests for transform sampling: layouts, value sets, statistics, serialization."""

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
    load_transform,
    sample_transform,
    save_transform,
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
        with pytest.raises(ValueError):
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
        ],
        ids=["row-outside-k", "duplicate-rows-and-sign-3", "sign-3", "wrong-shape", "s-above-k"],
    )
    def test_invalid_layout_built_in_code_rejected(self, s, rows, signs, match):
        with pytest.raises(ValueError, match=match):
            SparseColumnLayout(k=10, d=3, s=s, rows=np.array(rows), signs=np.array(signs, dtype=np.float64))


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
            sample_transform(AchlioptasSparse(), k, d, SeedSpec(0, 0))
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

    @pytest.mark.parametrize("k,d", [(0, 5), (5, 0)])
    def test_invalid_shapes(self, k, d):
        with pytest.raises(ValueError):
            sample_transform(DenseGaussian(), k, d, SeedSpec(0, 0))

    def test_entries_must_match_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3, 4\)"):
            DenseTransform(k=3, d=4, entries=np.zeros((4, 3)), kind=DenseGaussian())

    def test_dense_entry_budget(self):
        with pytest.raises(ResourceLimitError):
            sample_transform(DenseGaussian(), 1 << 16, (MAX_DENSE_ENTRIES >> 16) + 1, SeedSpec(0, 0))

    def test_determinism_and_stream_separation(self):
        a = sample_transform(DenseGaussian(), 8, 16, SeedSpec(2, 0))
        b = sample_transform(DenseGaussian(), 8, 16, SeedSpec(2, 0))
        c = sample_transform(DenseGaussian(), 8, 16, SeedSpec(2, 1))
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)


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


class TestSerialization:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
    def test_round_trip(self, kind, tmp_path):
        original = sample_transform(kind, 12, 30, SeedSpec(77, 5))
        path = tmp_path / "transform.bin"
        save_transform(original, path)
        loaded = load_transform(path)
        assert loaded.k == original.k and loaded.d == original.d
        assert loaded.seed == SeedSpec(77, 5)
        if isinstance(original, SparseColumnLayout):
            assert isinstance(loaded, SparseColumnLayout)
            assert loaded.s == original.s
            assert np.array_equal(loaded.rows, original.rows)
            assert np.array_equal(loaded.signs, original.signs)
        else:
            assert isinstance(loaded, DenseTransform)
            assert loaded.kind == original.kind
            assert np.array_equal(loaded.entries, original.entries)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_transform(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"JL")
        with pytest.raises(ValueError, match="truncated"):
            load_transform(path)

    def test_unknown_version_rejected(self, tmp_path):
        t = sample_transform(Rademacher(), 3, 4, SeedSpec(0, 0))
        path = tmp_path / "t.bin"
        save_transform(t, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_transform(path)

    @staticmethod
    def _graph_file(tmp_path):
        layout = sample_transform(GraphSparse(2), 10, 4, SeedSpec(0, 1))
        path = tmp_path / "g.bin"
        save_transform(layout, path)
        return path, bytearray(path.read_bytes())

    def test_row_outside_k_rejected(self, tmp_path):
        path, blob = self._graph_file(tmp_path)
        header = len(blob) - 9 * 4 * 2
        blob[header + 8 : header + 16] = (99).to_bytes(8, "little")  # column 0, second row
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"g\.bin: row index outside \[0, 10\)"):
            load_transform(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path, blob = self._graph_file(tmp_path)
        path.write_bytes(bytes(blob[:-3]))
        with pytest.raises(ValueError, match=r"g\.bin: truncated payload"):
            load_transform(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._graph_file(tmp_path)
        path.write_bytes(bytes(blob) + b"\x00")
        with pytest.raises(ValueError, match=r"g\.bin: 1 trailing bytes"):
            load_transform(path)

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        path, blob = self._graph_file(tmp_path)
        blob[17:25] = (1 << 40).to_bytes(8, "little")  # d
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="truncated payload"):
            load_transform(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_file_rejected_or_valid(self, data, tmp_path_factory):
        """Any byte mutation either raises ValueError or loads a valid layout."""
        path, blob = self._graph_file(tmp_path_factory.mktemp("mut"))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, 3))
        path.write_bytes(bytes(blob[: len(blob) - cut]) + data.draw(st.binary(max_size=2)))
        try:
            loaded = load_transform(path)
        except ValueError as exc:
            assert "\n" not in str(exc) and str(path) in str(exc)
            return
        if isinstance(loaded, SparseColumnLayout):
            assert 1 <= loaded.s <= loaded.k
            assert loaded.rows.shape == loaded.signs.shape == (loaded.d, loaded.s)
            assert np.all((loaded.rows >= 0) & (loaded.rows < loaded.k))
            assert np.all(np.diff(loaded.rows, axis=1) > 0)
            assert np.all(np.abs(loaded.signs) == 1.0)
        else:
            assert loaded.entries.shape == (loaded.k, loaded.d)
