"""Tests for seeded stream derivation and the unit-vector generators."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlproj import core
from jlproj.core import (
    GraphSparse,
    InputBatch,
    InputVector,
    SeedSpec,
    derive_stream,
    sample_sparse_unit_batch,
    sample_unit_sphere,
    sample_unit_sphere_batch,
    sample_without_replacement,
    subset_blocks,
)
from jlproj.stats import chi_square_gof

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_stream.json").read_text())


class TestStreamDerivation:
    def test_same_spec_same_stream(self):
        """Equal (master_seed, stream_id) must give bit-identical draws."""
        a = derive_stream(SeedSpec(42, 0)).random(1000)
        b = derive_stream(SeedSpec(42, 0)).random(1000)
        assert np.array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = derive_stream(SeedSpec(42, 0)).random(1000)
        b = derive_stream(SeedSpec(42, 1)).random(1000)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = derive_stream(SeedSpec(42, 0)).random(1000)
        b = derive_stream(SeedSpec(43, 0)).random(1000)
        assert not np.array_equal(a, b)

    def test_golden_uniform_draws(self):
        """First draws of (42, 0) match the frozen fixture exactly."""
        rng = derive_stream(SeedSpec(GOLDEN["master_seed"], GOLDEN["stream_id"]))
        expected = np.array([float(v) for v in GOLDEN["first_uniform_draws"]])
        assert np.array_equal(rng.random(expected.size), expected)

    def test_golden_normal_draws(self):
        rng = derive_stream(SeedSpec(GOLDEN["master_seed"], GOLDEN["stream_id"]))
        expected = np.array([float(v) for v in GOLDEN["first_normal_draws"]])
        assert np.array_equal(rng.standard_normal(expected.size), expected)

    @pytest.mark.parametrize("master,stream", [(-1, 0), (0, -1), (1 << 64, 0), (0, 1 << 64)])
    def test_seed_spec_range(self, master, stream):
        with pytest.raises(ValueError):
            SeedSpec(master, stream)

    def test_stream_helper(self):
        assert SeedSpec(9, 1).stream(5) == SeedSpec(9, 5)


class TestKinds:
    def test_graph_sparse_needs_positive_s(self):
        with pytest.raises(ValueError):
            GraphSparse(0)


class TestUnitSphere:
    def test_dimension_one_is_sign(self):
        for stream in range(20):
            x = sample_unit_sphere(1, SeedSpec(0, stream))
            assert x.values[0] in (1.0, -1.0)

    def test_norm_at_large_dimension(self):
        xs = sample_unit_sphere_batch(10000, 1, SeedSpec(1, 0))
        assert abs(xs.norms[0] - 1.0) <= 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sample_unit_sphere(0, SeedSpec(0, 0))

    def test_determinism(self):
        a = sample_unit_sphere(200, SeedSpec(5, 7))
        b = sample_unit_sphere(200, SeedSpec(5, 7))
        assert np.array_equal(a.values, b.values)

    def test_coordinate_means_are_centered(self):
        """Monte Carlo: every coordinate mean within 4 SE of 0 (d=1000, 1e4 draws)."""
        d, n = 1000, 10_000
        block = np.stack([v.values for v in sample_unit_sphere_batch(d, n, SeedSpec(11, 0))])
        means = block.mean(axis=0)
        se = block.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(means) <= 4.0 * se)


class TestSparseUnit:
    def test_support_and_norm(self):
        xs = sample_sparse_unit_batch(10000, 5, 1, SeedSpec(2, 0))
        assert xs[0].nnz == 5
        assert abs(xs.norms[0] ** 2 - 1.0) <= 1e-12
        assert np.all(np.diff(xs[0].indices) > 0)

    def test_full_support(self):
        xs = sample_sparse_unit_batch(50, 50, 1, SeedSpec(2, 1))
        assert np.array_equal(xs[0].indices, np.arange(50))
        assert abs(xs.norms[0] ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("d,t", [(10, 0), (10, 11), (0, 1)])
    def test_invalid_arguments(self, d, t):
        """d < 1 fails the support-size check too: no t has 1 <= t <= d."""
        with pytest.raises(ValueError, match=rf"^support size must satisfy 1 <= t <= d, got t={t}, d={d}$"):
            sample_sparse_unit_batch(d, t, 1, SeedSpec(0, 0))

    def test_determinism(self):
        a = sample_sparse_unit_batch(300, 9, 1, SeedSpec(5, 8))[0]
        b = sample_sparse_unit_batch(300, 9, 1, SeedSpec(5, 8))[0]
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)


class TestSingleDrawIsBatchOfOne:
    """One draw convention per input family: a single draw is a batch of one."""

    @pytest.mark.parametrize("d,seed", [(1, 0), (7, 2), (200, 1), (10000, 1)])
    def test_unit_sphere(self, d, seed):
        single = sample_unit_sphere(d, SeedSpec(seed, 9))
        batch = sample_unit_sphere_batch(d, 1, SeedSpec(seed, 9))[0]
        assert single.indices is None and batch.indices is None
        assert single.values.tobytes() == batch.values.tobytes()


class TestInputVectorValidation:
    def test_dense_length_must_match(self):
        with pytest.raises(ValueError):
            InputVector(dim=4, values=np.zeros(3))

    def test_sparse_indices_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            InputVector(dim=10, values=np.ones(2), indices=np.array([5, 3]))

    def test_sparse_indices_must_be_in_range(self):
        with pytest.raises(ValueError):
            InputVector(dim=10, values=np.ones(2), indices=np.array([3, 10]))

    def test_misaligned_sparse_storage(self):
        with pytest.raises(ValueError, match=r"^sparse indices and values must align$"):
            InputVector(dim=10, values=np.ones(3), indices=np.array([1, 2]))

    def test_sparse_indices_must_be_integers(self):
        with pytest.raises(ValueError, match=r"^sparse indices must be integers, got float64$"):
            InputVector(dim=3, values=np.array([1.0]), indices=np.array([1.7]))

    def test_support_marginals_uniform(self):
        """Each index appears with frequency 4 SE around t/d; chi-square at 0.001."""
        d, t, n = 100, 3, 100_000
        idx = np.concatenate([v.indices for v in sample_sparse_unit_batch(d, t, n, SeedSpec(13, 0))])
        counts = np.bincount(idx, minlength=d)
        p = t / d
        se = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 4.0 * se)
        _, _, ok = chi_square_gof(counts, np.full(d, 1.0 / d))
        assert ok

    @given(
        d=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generator_invariants(self, d, seed, data):
        """Any (d, t, seed): unit squared norm within 1e-12, sorted support."""
        t = data.draw(st.integers(min_value=1, max_value=d))
        xs = sample_sparse_unit_batch(d, t, 1, SeedSpec(seed, 0))
        assert abs(xs.norms[0] ** 2 - 1.0) <= 1e-12
        assert xs[0].indices.size == t
        if t > 1:
            assert np.all(np.diff(xs[0].indices) > 0)
        ys = sample_unit_sphere_batch(d, 1, SeedSpec(seed, 1))
        assert abs(ys.norms[0] ** 2 - 1.0) <= 1e-12


class TestInputBatch:
    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^dimension must be positive, got 0$"):
            InputBatch(0, np.zeros((1, 0)))

    def test_wrong_width(self):
        with pytest.raises(ValueError, match="4 values per row"):
            InputBatch(4, np.zeros((2, 3)))

    def test_misaligned_storage(self):
        with pytest.raises(ValueError, match=r"^sparse indices and values must align$"):
            InputBatch(10, np.ones((2, 3)), np.array([[1, 2], [3, 4]]))

    def test_values_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            InputBatch(4, np.zeros(4))

    @pytest.mark.parametrize("bad", [[[0, 1], [3, 10]], [[-1, 1], [3, 4]]], ids=["too-large", "negative"])
    def test_index_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            InputBatch(10, np.ones((2, 2)), np.array(bad))

    def test_row_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            InputBatch(10, np.ones((2, 2)), np.array([[1, 2], [5, 5]]))

    def test_indices_must_be_integers(self):
        with pytest.raises(ValueError, match=r"^sparse indices must be integers, got float64$"):
            InputBatch(3, np.ones((1, 1)), np.array([[1.0]]))

    def test_rows_are_views(self):
        batch = sample_sparse_unit_batch(50, 4, 6, SeedSpec(14, 0))
        assert len(batch) == 6
        row = batch[2]
        assert row.dim == 50 and row.nnz == 4
        assert np.shares_memory(row.values, batch.values) and np.shares_memory(row.indices, batch.indices)
        assert np.array_equal(row.values, batch.values[2]) and np.array_equal(row.indices, batch.indices[2])
        dense = sample_unit_sphere_batch(7, 3, SeedSpec(14, 1))
        assert dense[1].indices is None and np.shares_memory(dense[1].values, dense.values)
        with pytest.raises(IndexError):
            batch[6]


class TestBatchSupport:
    def test_sorted_distinct_columns_kept_read_only(self):
        batch = InputBatch(10, np.ones((3, 2)), np.array([[7, 9], [0, 7], [3, 9]]))
        assert np.array_equal(batch.support, [0, 3, 7, 9])
        assert batch.support is batch.support and not batch.support.flags.writeable

    def test_dense_storage_has_none(self):
        assert sample_unit_sphere_batch(7, 3, SeedSpec(15, 0)).support is None


def _whole_block_sphere(d, count, seed):
    """The sphere sampler with one whole-block ``np.linalg.norm``."""
    block = derive_stream(seed).standard_normal((count, d))
    return block / np.linalg.norm(block, axis=1, keepdims=True)


def _whole_block_sparse(d, t, count, seed):
    """The sparse sampler with one whole-block ``np.linalg.norm``."""
    rng = derive_stream(seed)
    idx = sample_without_replacement(d, t, rng, count=count)
    vals = rng.standard_normal((count, t))
    return idx, vals / np.linalg.norm(vals, axis=1, keepdims=True)


class TestRowBlockNormalisation:
    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("sparse", [False, True], ids=["sphere", "sparse"])
    def test_equals_whole_block_norm(self, rows, sparse, monkeypatch):
        """Normalising 1, 2 or 3 rows at a time (or the default budget's
        rows) gives the whole-block values bit for bit."""
        d, t, count, seed = 300, 9, 7, SeedSpec(16, 0)
        width = t if sparse else d
        if rows is not None:
            monkeypatch.setattr(core, "_NORM_BLOCK_BYTES", rows * 8 * width)
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda x, *a, **kw: calls.append(len(x)) or norm(x, *a, **kw))
        if sparse:
            batch = sample_sparse_unit_batch(d, t, count, seed)
        else:
            batch = sample_unit_sphere_batch(d, count, seed)
        step = count if rows is None else rows
        assert calls == [min(step, count - start) for start in range(0, count, step)]
        monkeypatch.setattr(np.linalg, "norm", norm)
        if sparse:
            idx, vals = _whole_block_sparse(d, t, count, seed)
            assert np.array_equal(batch.indices, idx)
        else:
            vals = _whole_block_sphere(d, count, seed)
        assert np.array_equal(batch.values, vals)

    def test_sphere_draw_peaks_near_its_output(self):
        """500 draws at d = 10^4 are a 40 MB block; no second one is made."""
        tracemalloc.start()
        try:
            batch = sample_unit_sphere_batch(10_000, 500, SeedSpec(16, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * batch.values.nbytes


def _narrow_dtype(d):
    return np.int8 if d <= 1 << 7 else np.int16 if d <= 1 << 15 else np.int32


class TestNarrowSparseIndices:
    """Sparse batches keep their indices in the subset pool's narrow type."""

    @pytest.mark.parametrize("count", [0, 3])
    @pytest.mark.parametrize("d", [1, 10, 128, 129, 1 << 15, (1 << 15) + 1])
    def test_dtype_depends_on_d_alone(self, d, count):
        batch = sample_sparse_unit_batch(d, 1, count, SeedSpec(17, d))
        assert batch.indices.dtype == _narrow_dtype(d)
        assert batch.indices.shape == (count, 1)

    @pytest.mark.parametrize(
        "d,t,count",
        [(10, 3, 7), (128, 128, 4), (129, 20, 30), (100, 5, 50_000), ((1 << 15) + 1, 4, 300)],
    )
    def test_values_are_the_int64_sampler(self, d, t, count):
        """Indices equal sample_without_replacement's int64 output for the
        same stream (over two draw chunks at d = 100), values bitwise the
        whole-block normalisation."""
        seed = SeedSpec(18, t)
        batch = sample_sparse_unit_batch(d, t, count, seed)
        idx, vals = _whole_block_sparse(d, t, count, seed)
        assert idx.dtype == np.int64 and batch.indices.dtype == _narrow_dtype(d)
        assert np.array_equal(batch.indices, idx)
        assert np.array_equal(batch.values, vals)

    def test_paper_scale_batch_peak(self):
        """2500 x 1000 at d = 10^4: int16 indices, no int64 copy (59.6 MiB before)."""
        tracemalloc.start()
        try:
            sample_sparse_unit_batch(10_000, 1000, 2500, SeedSpec(19, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 << 20

    def test_unsigned_decreasing_indices_rejected(self):
        """Row order is compared, not differenced, so unsigned indices cannot wrap."""
        with pytest.raises(ValueError, match="strictly increasing"):
            InputBatch(10, np.full((1, 2), 0.5**0.5), np.array([[5, 3]], dtype=np.uint8))


class TestWithoutReplacement:
    def test_full_set(self):
        rng = derive_stream(SeedSpec(0, 0))
        assert np.array_equal(sample_without_replacement(5, 5, rng, count=1)[0], np.arange(5))

    def test_batch_matches_shape(self):
        rng = derive_stream(SeedSpec(0, 1))
        out = sample_without_replacement(10, 3, rng, count=7)
        assert out.shape == (7, 3)
        assert np.all(np.diff(out, axis=1) > 0)

    def test_invalid_subset_size(self):
        rng = derive_stream(SeedSpec(0, 2))
        with pytest.raises(ValueError):
            sample_without_replacement(3, 4, rng, count=1)

    @pytest.mark.parametrize("m", [0, 3, 10])
    def test_empty_batch(self, m):
        out = sample_without_replacement(10, m, derive_stream(SeedSpec(0, 3)), count=0)
        assert out.shape == (0, m) and out.dtype == np.int64

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count=-1"):
            sample_without_replacement(10, 3, derive_stream(SeedSpec(0, 4)), count=-1)

    @pytest.mark.parametrize(
        "n,m,count",
        [(10, 3, 7), (1 << 15, 4, 300), ((1 << 15) + 1, 4, 300), (40_000, 6, 1200), (50, 16, 90_000)],
    )
    def test_matches_int64_reference(self, n, m, count):
        """The narrow pool draws and returns exactly what an int64 pool does,
        across dtype boundaries and over several chunks."""
        got = sample_without_replacement(n, m, derive_stream(SeedSpec(0, 5)), count=count)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_subsets(n, m, derive_stream(SeedSpec(0, 5)), count))


    @pytest.mark.parametrize(
        "n,m,count",
        [(10, 3, 7), (50, 16, 90_000), ((1 << 15) + 1, 4, 300), (5, 5, 4), (10, 0, 3), (10, 3, 0)],
    )
    def test_blocks_concatenate_to_the_sampler(self, n, m, count):
        """Blocks are consecutive, narrow and, joined, the sampler's output;
        the full set consumes no draws."""
        rng = derive_stream(SeedSpec(0, 6))
        blocks = list(subset_blocks(n, m, rng, count))
        assert [start for start, _ in blocks] == [sum(len(b) for _, b in blocks[:i]) for i in range(len(blocks))]
        assert all(b.dtype == _narrow_dtype(n) for _, b in blocks)
        joined = np.concatenate([b for _, b in blocks]) if blocks else np.empty((0, m), dtype=np.int64)
        assert np.array_equal(joined, sample_without_replacement(n, m, derive_stream(SeedSpec(0, 6)), count))
        if m == n:
            assert rng.random() == derive_stream(SeedSpec(0, 6)).random()

    def test_full_set_blocks_are_chunked_views(self):
        """m == n yields read-only views in the draw chunks' row count."""
        n, count = 50, 200_000
        chunk = (1 << 25) // (8 * n)
        blocks = list(subset_blocks(n, n, derive_stream(SeedSpec(0, 6)), count))
        assert [len(b) for _, b in blocks] == [chunk, chunk, count - 2 * chunk]
        for _, block in blocks:
            assert not block.flags.writeable
            assert np.array_equal(block, np.broadcast_to(np.arange(n), block.shape))

    def test_blocks_check_arguments_when_called(self):
        rng = derive_stream(SeedSpec(0, 7))
        with pytest.raises(ValueError, match="count=-1"):
            subset_blocks(10, 3, rng, count=-1)
        with pytest.raises(ValueError, match="subset size"):
            subset_blocks(3, 4, rng, count=1)

    def test_one_pool_at_a_time(self):
        """A chunk's (chunk, n) pool is freed before its block is yielded,
        so walking three chunks never holds two pools (2 x 4.0 MiB at n = 50)."""
        tracemalloc.start()
        try:
            for _, block in subset_blocks(50, 16, derive_stream(SeedSpec(0, 9)), 200_000):
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


def _reference_subsets(n, m, rng, count):
    """Partial Fisher-Yates on an int64 pool, chunked as the sampler documents."""
    if m == n:
        return np.tile(np.arange(n, dtype=np.int64), (count, 1))
    chunk = max(1, (1 << 25) // (8 * n))
    pieces = []
    for start in range(0, count, chunk):
        c = min(chunk, count - start)
        pool = np.tile(np.arange(n, dtype=np.int64), (c, 1))
        for j in range(m):
            pick = rng.integers(j, n, size=c)
            chosen = pool[np.arange(c), pick].copy()
            pool[np.arange(c), pick] = pool[:, j]
            pool[:, j] = chosen
        pieces.append(np.sort(pool[:, :m], axis=1))
    return np.concatenate(pieces, axis=0) if pieces else np.empty((0, m), dtype=np.int64)


class TestEmptyAndNegativeBatches:
    def test_empty_sparse_batch(self):
        batch = sample_sparse_unit_batch(10, 3, 0, SeedSpec(0, 0))
        assert len(batch) == 0
        assert batch.values.shape == (0, 3) and batch.indices.shape == (0, 3)
        assert batch.indices.dtype == np.int8

    def test_empty_sphere_batch(self):
        assert sample_unit_sphere_batch(10, 0, SeedSpec(0, 0)).values.shape == (0, 10)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: sample_sparse_unit_batch(10, 3, -1, SeedSpec(0, 0)),
            lambda: sample_unit_sphere_batch(10, -1, SeedSpec(0, 0)),
        ],
        ids=["sparse", "sphere"],
    )
    def test_negative_count_rejected(self, draw):
        with pytest.raises(ValueError, match="non-negative"):
            draw()
