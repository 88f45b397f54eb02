"""Tests for application kernels, distortion, and the work counter."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from jlproj import core
from jlproj.apply import WorkCounter, apply, distortion, distortion_batch
from jlproj.constructions import DenseTransform, sample_transform
from jlproj.core import (
    AchlioptasSparse,
    DenseGaussian,
    GraphSparse,
    InputBatch,
    InputVector,
    Rademacher,
    ResourceLimitError,
    SeedSpec,
    sample_sparse_unit_batch,
    sample_unit_sphere,
    sample_unit_sphere_batch,
)

# The package re-exports the function `apply`, which shadows the submodule.
apply_module = importlib.import_module("jlproj.apply")

KINDS = [DenseGaussian(), Rademacher(), AchlioptasSparse(), GraphSparse(6)]


def _fixed_dense(entries):
    entries = np.asarray(entries, dtype=np.float64)
    k, d = entries.shape
    return DenseTransform(k=k, d=d, entries=entries, kind=DenseGaussian())


def _densify(x):
    """x as a dense length-dim array."""
    if x.indices is None:
        return x.values
    dense = np.zeros(x.dim)
    dense[x.indices] = x.values
    return dense


def _traced_peak(transform, xs):
    """Peak bytes traced while ``distortion_batch(transform, xs)`` runs."""
    tracemalloc.start()
    try:
        distortion_batch(transform, xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stack(xs):
    """One batch of vectors that share storage and nnz."""
    indices = None if xs[0].indices is None else np.array([x.indices for x in xs])
    return InputBatch(xs[0].dim, np.array([x.values for x in xs]), indices)


class TestApply:
    def test_hand_multiplication(self):
        """[[1,0,2],[0,-1,1]] applied to (1,1,1) gives (3, 0)."""
        t = _fixed_dense([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
        x = InputVector(dim=3, values=np.ones(3))
        assert np.array_equal(apply(t, x), np.array([3.0, 0.0]))

    def test_hand_multiplication_sparse_storage(self):
        t = _fixed_dense([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
        x = InputVector(dim=3, values=np.array([1.0, 1.0]), indices=np.array([0, 2]))
        assert np.array_equal(apply(t, x), np.array([3.0, 1.0]))

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    def test_zero_vector_maps_to_zero(self, kind):
        transform = sample_transform(kind, 10, 30, SeedSpec(0, 0))
        dense_zero = InputVector(dim=30, values=np.zeros(30))
        sparse_zero = InputVector(dim=30, values=np.zeros(2), indices=np.array([1, 5]))
        assert np.array_equal(apply(transform, dense_zero), np.zeros(10))
        assert np.array_equal(apply(transform, sparse_zero), np.zeros(10))

    def test_one_hot_through_graph_construction(self):
        """A one-hot input reproduces one column: s entries of +-1/sqrt(s), norm 1."""
        layout = sample_transform(GraphSparse(16), 50, 200, SeedSpec(1, 0))
        for i in (0, 17, 199):
            x = InputVector(dim=200, values=np.array([1.0]), indices=np.array([i]))
            y = apply(layout, x)
            assert np.count_nonzero(y) == 16
            assert np.all(np.isin(np.abs(y[y != 0.0]), 0.25))
            assert abs(float(y @ y) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        transform = sample_transform(Rademacher(), 4, 8, SeedSpec(0, 1))
        with pytest.raises(ValueError, match=r"^input dimension 9 does not match the transform's d=8$"):
            apply(transform, InputVector(dim=9, values=np.zeros(9)))


class TestDistortion:
    def test_zero_transform_floors_at_minus_one(self):
        t = _fixed_dense(np.zeros((5, 12)))
        x = sample_unit_sphere(12, SeedSpec(2, 0))
        assert distortion(t, x) == -1.0

    def test_one_hot_zero_distortion(self):
        layout = sample_transform(GraphSparse(16), 50, 500, SeedSpec(2, 1))
        x = InputVector(dim=500, values=np.array([1.0]), indices=np.array([123]))
        assert abs(distortion(layout, x)) <= 1e-12

    def test_rejects_non_unit_input(self):
        t = sample_transform(DenseGaussian(), 5, 20, SeedSpec(2, 2))
        with pytest.raises(ValueError, match=rf"^distortion requires a unit vector, got \|x\| = {math.sqrt(5.0)!r}$"):
            distortion(t, InputVector(dim=20, values=np.full(20, 0.5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_rejects_non_finite_input(self, bad, sparse):
        """A NaN or infinite norm fails the unit-norm gate."""
        t = sample_transform(DenseGaussian(), 5, 3, SeedSpec(2, 5))
        if sparse:
            x = InputVector(dim=3, values=np.array([bad]), indices=np.array([1]))
            xs = InputBatch(3, np.array([[1.0], [bad]]), np.array([[0], [1]]))
        else:
            x = InputVector(dim=3, values=np.array([bad, 0.0, 0.0]))
            xs = InputBatch(3, np.array([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="unit"):
            distortion(t, x)
        with pytest.raises(ValueError, match="unit"):
            distortion_batch(t, xs)

    def test_tolerates_round_trip_jitter(self):
        t = sample_transform(DenseGaussian(), 5, 20, SeedSpec(2, 3))
        x = sample_unit_sphere(20, SeedSpec(2, 4))
        jittered = InputVector(dim=20, values=x.values * (1.0 + 5e-10))
        distortion(t, jittered)

    def test_gaussian_unbiased(self):
        """Mean distortion over fresh transforms within 4 SE of 0."""
        deltas = []
        for i in range(60):
            t = sample_transform(DenseGaussian(), 50, 100, SeedSpec(3, 2 * i))
            x = sample_unit_sphere(100, SeedSpec(3, 2 * i + 1))
            deltas.append(distortion(t, x))
        deltas = np.array(deltas)
        assert abs(deltas.mean()) <= 4.0 * deltas.std(ddof=1) / math.sqrt(deltas.size)


class TestDistortionBatch:
    def test_empty(self):
        t = sample_transform(Rademacher(), 4, 8, SeedSpec(0, 2))
        out = distortion_batch(t, InputBatch(8, np.empty((0, 8))))
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_singleton_matches_scalar_bitwise(self):
        t = sample_transform(AchlioptasSparse(), 20, 64, SeedSpec(0, 3))
        x = sample_unit_sphere(64, SeedSpec(0, 4))
        out = distortion_batch(t, x.batch())
        assert out.dtype == np.float64 and out.shape == (1,)
        assert out[0] == distortion(t, x)

    def test_order_and_ids(self):
        t = sample_transform(GraphSparse(3), 10, 40, SeedSpec(0, 5))
        xs = [sample_sparse_unit_batch(40, 4, 1, SeedSpec(1, i))[0] for i in range(5)]
        deltas = distortion_batch(t, _stack(xs))
        assert deltas.dtype == np.float64 and deltas.shape == (5,)
        for delta, x in zip(deltas, xs):
            assert delta == distortion(t, x)

    def test_dimension_mismatch_rejected(self):
        t = sample_transform(Rademacher(), 4, 8, SeedSpec(0, 6))
        xs = InputBatch(7, np.zeros((2, 7)))
        with pytest.raises(ValueError, match="dimension 7"):
            distortion_batch(t, xs)


class TestPathEquivalence:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_matches_densified(self, kind, seed):
        """Sparse-stored and densified inputs agree within 1e-12 per coordinate."""
        d = 300
        transform = sample_transform(kind, 24, d, SeedSpec(40 + seed, 0))
        x = sample_sparse_unit_batch(d, 20, 1, SeedSpec(40 + seed, 1))[0]
        dense_x = InputVector(dim=d, values=_densify(x))
        y_sparse = apply(transform, x)
        y_dense = apply(transform, dense_x)
        assert np.max(np.abs(y_sparse - y_dense)) <= 1e-12

    @given(
        log_c=st.floats(min_value=-20.0, max_value=20.0),
        negate=st.booleans(),
        kind_index=st.integers(min_value=0, max_value=len(KINDS) - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_scaling_invariance(self, log_c, negate, kind_index):
        """|R(cx)|^2 equals c^2 |Rx|^2 within 8 ulps for c in [2^-20, 2^20]."""
        c = -(2.0**log_c) if negate else 2.0**log_c
        transform = sample_transform(KINDS[kind_index], 16, 64, SeedSpec(50, kind_index))
        x = sample_unit_sphere(64, SeedSpec(50, 99))
        y = apply(transform, x)
        scaled = apply(transform, InputVector(dim=64, values=c * x.values))
        lhs = float(scaled @ scaled)
        rhs = c * c * float(y @ y)
        assert abs(lhs - rhs) <= 8.0 * np.spacing(max(abs(lhs), abs(rhs)))


class TestWorkCounter:
    def test_graph_sparse_fast_path_touches_t_times_s(self):
        layout = sample_transform(GraphSparse(16), 50, 1000, SeedSpec(6, 0))
        x = sample_sparse_unit_batch(1000, 5, 1, SeedSpec(6, 1))[0]
        counter = WorkCounter()
        apply(layout, x, counter)
        assert counter.entries_touched == 5 * 16

    def test_graph_sparse_dense_input(self):
        layout = sample_transform(GraphSparse(4), 20, 100, SeedSpec(6, 2))
        counter = WorkCounter()
        apply(layout, sample_unit_sphere(100, SeedSpec(6, 3)), counter)
        assert counter.entries_touched == 100 * 4

    def test_dense_transform_counts(self):
        transform = sample_transform(Rademacher(), 20, 100, SeedSpec(6, 4))
        counter = WorkCounter()
        apply(transform, sample_unit_sphere(100, SeedSpec(6, 5)), counter)
        apply(transform, sample_sparse_unit_batch(100, 7, 1, SeedSpec(6, 6))[0], counter)
        assert counter.entries_touched == 20 * 100 + 20 * 7

    def test_counter_accumulates_through_distortion(self):
        layout = sample_transform(GraphSparse(16), 50, 1000, SeedSpec(6, 7))
        xs = [sample_sparse_unit_batch(1000, 5, 1, SeedSpec(7, i))[0] for i in range(3)]
        counter = WorkCounter()
        distortion_batch(layout, _stack(xs), counter=counter)
        assert counter.entries_touched == 3 * 5 * 16


def _accepted(make):
    try:
        make()
    except ValueError:
        return False
    return True


class TestBatchMatchesRows:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_batch_agrees_with_its_rows(self, data):
        """A batch is accepted exactly when each row is accepted as an
        InputVector, and its deltas are its rows' deltas (graph bitwise,
        dense transforms within 1e-12)."""
        dim = data.draw(st.integers(min_value=1, max_value=6), label="dim")
        n = data.draw(st.integers(min_value=1, max_value=4), label="n")
        if data.draw(st.booleans(), label="sparse"):
            t = data.draw(st.integers(min_value=1, max_value=min(dim, 4)), label="t")
            valid = st.lists(st.integers(0, dim - 1), min_size=t, max_size=t, unique=True).map(sorted)
            arbitrary = st.lists(st.integers(-1, dim), min_size=t, max_size=t)
            indices = np.array([data.draw(st.one_of(valid, arbitrary)) for _ in range(n)])
            width = t
        else:
            indices = None
            width = data.draw(st.sampled_from([dim, dim + 1, max(1, dim - 1)]), label="width")
        magnitudes = st.floats(min_value=0.5, max_value=2.0)
        values = np.array([data.draw(st.lists(magnitudes, min_size=width, max_size=width)) for _ in range(n)])
        values *= data.draw(st.sampled_from([1.0, -1.0]))
        values /= np.linalg.norm(values, axis=1, keepdims=True)

        accepted = _accepted(lambda: InputBatch(dim, values, indices))
        rows = [
            _accepted(lambda i=i: InputVector(dim, values[i], None if indices is None else indices[i]))
            for i in range(n)
        ]
        assert accepted == all(rows)
        if not accepted:
            return
        batch = InputBatch(dim, values, indices)
        kind = data.draw(st.sampled_from(KINDS), label="kind")
        transform = sample_transform(kind, 8, dim, SeedSpec(70, data.draw(st.integers(0, 3))))
        deltas = distortion_batch(transform, batch)
        singles = np.array([distortion(transform, batch[i]) for i in range(n)])
        if isinstance(kind, GraphSparse):
            assert np.array_equal(deltas, singles)
        else:
            assert np.max(np.abs(deltas - singles)) <= 1e-12


def _bincount_reference(layout, x):
    """Graph product of one vector: scatter its signed columns with bincount."""
    idx = slice(None) if x.indices is None else x.indices
    contrib = layout.signs[idx] * x.values[:, None]
    y = np.bincount(layout.rows[idx].ravel(), weights=contrib.ravel(), minlength=layout.k)
    return y * layout.scale


def _mixed_inputs(d, seed):
    """A mixed list of inputs: one dense and one sparse batch."""
    return [sample_unit_sphere_batch(d, 4, SeedSpec(seed, 0)), sample_sparse_unit_batch(d, 3, 6, SeedSpec(seed, 1))]


class TestBatchedKernel:
    D, K = 400, 32

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense_input", "sparse_input"])
    def test_graph_bitwise_equals_bincount(self, sparse):
        layout = sample_transform(GraphSparse(6), self.K, self.D, SeedSpec(60, 0))
        if sparse:
            xs = sample_sparse_unit_batch(self.D, 9, 50, SeedSpec(60, 1))
        else:
            xs = sample_unit_sphere_batch(self.D, 50, SeedSpec(60, 1))
        expected = []
        for x in xs:
            y = _bincount_reference(layout, x)
            assert np.array_equal(apply(layout, x), y)
            expected.append(float(y @ y) - 1.0)
        assert np.array_equal(distortion_batch(layout, xs), np.array(expected))

    @pytest.mark.parametrize("kind", KINDS[:3], ids=lambda k: type(k).__name__)
    def test_dense_transforms_match_matrix_product(self, kind):
        transform = sample_transform(kind, self.K, self.D, SeedSpec(61, 0))
        for xs in (
            sample_unit_sphere_batch(self.D, 30, SeedSpec(61, 1)),
            sample_sparse_unit_batch(self.D, 11, 30, SeedSpec(61, 2)),
        ):
            for x in xs:
                assert np.max(np.abs(apply(transform, x) - transform.entries @ _densify(x))) <= 1e-12
            expected = [float(y @ y) - 1.0 for y in (transform.entries @ _densify(x) for x in xs)]
            assert np.max(np.abs(distortion_batch(transform, xs) - expected)) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense_input", "sparse_input"])
    def test_chunking_invariance(self, rows, kind, sparse, monkeypatch):
        transform = sample_transform(kind, self.K, self.D, SeedSpec(62, 0))
        if sparse:
            xs = sample_sparse_unit_batch(self.D, 5, 20, SeedSpec(62, 1))
        else:
            xs = sample_unit_sphere_batch(self.D, 20, SeedSpec(62, 1))
        whole = distortion_batch(transform, xs)
        width = 2 * 5 if sparse else self.D
        monkeypatch.setattr(apply_module, "_SCRATCH_BYTES", rows * 8 * (width + self.K))
        assert max(len(Y) for _, Y in apply_module._project(transform, xs, None)) == rows
        chunked = distortion_batch(transform, xs)
        if isinstance(kind, GraphSparse):
            assert np.array_equal(chunked, whole)
        else:
            assert np.max(np.abs(chunked - whole)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS[:3], ids=lambda k: type(k).__name__)
    def test_dense_transform_sparse_input_chunking_is_bitwise(self, kind, monkeypatch):
        """Every chunk multiplies the same C-ordered operator, so 1, 2 and 3
        rows per chunk give the same bits as one chunk."""
        transform = sample_transform(kind, self.K, self.D, SeedSpec(62, 0))
        xs = sample_sparse_unit_batch(self.D, 5, 20, SeedSpec(62, 1))
        whole = np.vstack([Y for _, Y in apply_module._project(transform, xs, None)])
        for rows in (1, 2, 3):
            monkeypatch.setattr(apply_module, "_SCRATCH_BYTES", rows * 8 * (2 * 5 + self.K))
            chunks = list(apply_module._project(transform, xs, None))
            assert max(len(Y) for _, Y in chunks) == rows
            assert np.array_equal(np.vstack([Y for _, Y in chunks]), whole)
            assert np.array_equal(distortion_batch(transform, xs), [float(y @ y) - 1.0 for y in whole])

    @pytest.mark.parametrize("k", [1, 3, 50, 51, 400])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense_input", "sparse_input"])
    def test_epilogue_is_bitwise_the_per_row_loop(self, k, kind, sparse):
        if isinstance(kind, GraphSparse):
            kind = GraphSparse(min(kind.s, k))
        transform = sample_transform(kind, k, self.D, SeedSpec(67, k))
        if sparse:
            xs = sample_sparse_unit_batch(self.D, 7, 40, SeedSpec(67, 1))
        else:
            xs = sample_unit_sphere_batch(self.D, 40, SeedSpec(67, 1))
        Y = np.vstack([Y for _, Y in apply_module._project(transform, xs, None)])
        assert np.array_equal(distortion_batch(transform, xs), [float(y @ y) - 1.0 for y in Y])

    def test_batch_norms_computed_once(self, monkeypatch):
        xs = sample_unit_sphere_batch(self.D, 10, SeedSpec(68, 0))
        kinds = (DenseGaussian(), GraphSparse(6))
        transforms = [sample_transform(kind, self.K, self.D, SeedSpec(68, 1)) for kind in kinds]
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs))
        first = distortion_batch(transforms[0], xs)
        distortion_batch(transforms[1], xs)
        assert len(calls) == 1
        assert np.array_equal(distortion_batch(transforms[0], xs), first)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    def test_mixed_list_keeps_order(self, kind):
        transform = sample_transform(kind, self.K, self.D, SeedSpec(63, 0))
        for xs in _mixed_inputs(self.D, 64):
            deltas = distortion_batch(transform, xs)
            one_by_one = np.array([distortion(transform, x) for x in xs])
            if isinstance(kind, GraphSparse):
                assert np.array_equal(deltas, one_by_one)
            else:
                assert np.max(np.abs(deltas - one_by_one)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    def test_counter_sums_over_mixed_list(self, kind):
        transform = sample_transform(kind, self.K, self.D, SeedSpec(65, 0))
        batches = _mixed_inputs(self.D, 66)
        counter = WorkCounter()
        for xs in batches:
            distortion_batch(transform, xs, counter)
        per_entry = kind.s if isinstance(kind, GraphSparse) else self.K
        assert counter.entries_touched == per_entry * sum(x.nnz for xs in batches for x in xs)


def _full_operator_deltas(transform, xs):
    """Deltas of a dense transform on a sparse batch through the whole
    C-ordered (d, k) operator and the batch's own indices."""
    op = np.ascontiguousarray(transform.entries.T)
    n, t = xs.values.shape
    X = csr_array((xs.values.ravel(), xs.indices.ravel(), np.arange(n + 1) * t), shape=(n, transform.d))
    Y = np.ascontiguousarray(X @ op)
    return np.matmul(Y[:, None, :], Y[:, :, None])[:, 0, 0] - 1.0


def _partial_support_batch(d, t, n, seed):
    """A sparse batch whose support includes columns 0 and d - 1."""
    xs = sample_sparse_unit_batch(d, t, n, seed)
    indices = xs.indices.copy()
    indices[0, 0], indices[-1, -1] = 0, d - 1
    return InputBatch(d, xs.values, indices)


class TestSupportOperator:
    """Every transform meets a sparse batch on the batch's support only."""

    K = 40

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("full", [False, True], ids=["partial", "full"])
    @pytest.mark.parametrize("kind", KINDS[:3], ids=lambda k: type(k).__name__)
    def test_bitwise_the_full_operator(self, rows, full, kind, monkeypatch):
        if full:
            d, xs = 30, sample_sparse_unit_batch(30, 10, 50, SeedSpec(80, 1))
            assert len(xs.support) == d
        else:
            d, xs = 5000, _partial_support_batch(5000, 4, 7, SeedSpec(80, 1))
            assert 0 < len(xs.support) < d and xs.support[0] == 0 and xs.support[-1] == d - 1
        transform = sample_transform(kind, self.K, d, SeedSpec(80, 0))
        if rows is not None:
            monkeypatch.setattr(apply_module, "_SCRATCH_BYTES", rows * 8 * (2 * xs.values.shape[1] + self.K))
            assert max(len(Y) for _, Y in apply_module._project(transform, xs, None)) == rows
        assert np.array_equal(distortion_batch(transform, xs), _full_operator_deltas(transform, xs))

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize(
        "d,t,n", [(100, 4, 7), (5000, 4, 7), (30, 10, 50)], ids=["partial-int8", "partial-int16", "full-int8"]
    )
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    def test_narrow_indices_bitwise_int64(self, kind, d, t, n, rows, monkeypatch):
        """A batch's narrow indices give the deltas of the same batch with int64 indices."""
        xs = sample_sparse_unit_batch(d, t, n, SeedSpec(83, d))
        assert xs.indices.dtype == (np.int8 if d <= 128 else np.int16)
        assert (len(xs.support) == d) == (d == 30)
        wide = InputBatch(d, xs.values, xs.indices.astype(np.int64))
        transform = sample_transform(kind, self.K, d, SeedSpec(83, 0))
        if rows is not None:
            monkeypatch.setattr(apply_module, "_SCRATCH_BYTES", rows * 8 * (2 * t + self.K))
            assert max(len(Y) for _, Y in apply_module._project(transform, xs, None)) == rows
        assert np.array_equal(distortion_batch(transform, xs), distortion_batch(transform, wide))

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize(
        "d,t,n",
        [(100, 4, 7), (5000, 4, 7), (30, 10, 50), (200, 100, 30)],
        ids=["partial-int8", "partial-int16", "full-int8", "full-int16"],
    )
    def test_graph_bitwise_equals_bincount(self, d, t, n, rows, monkeypatch):
        """The graph construction's ±1 signs scattered into the zeros of its
        support operator give the deltas of its columns scattered one
        vector at a time, and the counter adds n * t * s entries."""
        xs = sample_sparse_unit_batch(d, t, n, SeedSpec(84, d))
        assert xs.indices.dtype == (np.int8 if d <= 128 else np.int16)
        assert (len(xs.support) == d) == (d in (30, 200))
        layout = sample_transform(GraphSparse(6), self.K, d, SeedSpec(84, 0))
        if rows is not None:
            monkeypatch.setattr(apply_module, "_SCRATCH_BYTES", rows * 8 * (2 * t + self.K))
            assert max(len(Y) for _, Y in apply_module._project(layout, xs, None)) == rows
        expected = [float(y @ y) - 1.0 for y in (_bincount_reference(layout, x) for x in xs)]
        counter = WorkCounter()
        assert np.array_equal(distortion_batch(layout, xs, counter), expected)
        assert counter.entries_touched == n * t * 6

    @pytest.mark.parametrize("d", [100, 5000])
    def test_graph_one_hot_rows_are_exactly_zero(self, d):
        """A t = 1 row reproduces one column: s = 16 entries of ±1/4, whose
        squares sum to exactly 1."""
        layout = sample_transform(GraphSparse(16), self.K, d, SeedSpec(85, 0))
        deltas = distortion_batch(layout, sample_sparse_unit_batch(d, 1, 300, SeedSpec(85, 1)))
        assert np.all(deltas == 0.0)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
    def test_operator_over_the_entry_budget_is_refused(self, kind, monkeypatch):
        """The graph construction's layout budget (d * s) does not bound its
        (u, k) operator, so the operator is checked before it is made."""
        transform = sample_transform(kind, self.K, 100, SeedSpec(87, 0))
        xs = _partial_support_batch(100, 4, 7, SeedSpec(87, 1))
        u = len(xs.support)
        monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", u * self.K - 1)
        with pytest.raises(ResourceLimitError, match=rf"^support operator of {u}x{self.K} entries exceeds"):
            distortion_batch(transform, xs)
        monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", u * self.K)
        distortion_batch(transform, xs)

    def test_counter_unchanged(self):
        transform = sample_transform(Rademacher(), self.K, 5000, SeedSpec(81, 0))
        xs = _partial_support_batch(5000, 4, 7, SeedSpec(81, 1))
        counter = WorkCounter()
        distortion_batch(transform, xs, counter)
        assert counter.entries_touched == self.K * 7 * 4

    def test_peak_is_the_support_not_the_operator(self):
        """k = 400 at d = 10^4 is a 32 MB operator; 500 x 5 inputs use at
        most 2500 of its rows (8 MB).  The entries are read first, so the
        whole operator is held and its blocks are views."""
        transform = sample_transform(DenseGaussian(), 400, 10_000, SeedSpec(82, 0))
        transform.entries
        xs = sample_sparse_unit_batch(10_000, 5, 500, SeedSpec(82, 1))
        assert _traced_peak(transform, xs) <= 12 << 20

    def _chunked_batch(self, k):
        """(xs, u, rows): a d = 10^4, t = 1000 batch of 1200 rows, cut into
        chunks of ``rows`` rows, with its support and norms cached so that
        tracing sees only the projection."""
        xs = sample_sparse_unit_batch(10_000, 1000, 1200, SeedSpec(86, 1))
        xs.norms
        rows = apply_module._SCRATCH_BYTES // (8 * (2 * 1000 + k))
        assert 2 * rows < len(xs)
        return xs, len(xs.support), rows

    def test_graph_peak_is_the_operator_and_one_chunk(self):
        """A graph x sparse call holds its (u, k) operator, the layout's rows
        and signs, and one chunk: its int32 indices and its output.  The
        chunk reads the batch's value rows in place; scipy's copy of them
        (made for a view of less than half the batch) would add 4 MB here,
        and indices widened to int64 another 4 MB."""
        d, t, k, s = 10_000, 1000, 50, 16
        xs, u, rows = self._chunked_batch(k)
        peak = _traced_peak(sample_transform(GraphSparse(s), k, d, SeedSpec(86, 0)), xs)
        assert peak <= u * k * 8 + u * s * 16 + rows * (t * 4 + k * 8) + (1 << 20)

    def test_achlioptas_peak_is_the_operator_and_its_build_or_one_chunk(self):
        """A dense transform x sparse call holds its (u, k) operator and the
        larger of what builds it (one float64 row block and, for Achlioptas,
        its byte draw) and one chunk (int32 indices and output)."""
        d, t, k = 10_000, 1000, 50
        xs, u, rows = self._chunked_batch(k)
        transform = sample_transform(AchlioptasSparse(), k, d, SeedSpec(86, 0))
        build = min(k, apply_module._block_rows(transform)) * d * 8 + k * d
        peak = _traced_peak(transform, xs)
        assert peak <= u * k * 8 + max(build, rows * (t * 4 + k * 8)) + (1 << 20)


class TestRowBlocks:
    """A sampled dense transform is drawn in row blocks as it is projected."""

    D = 200

    @pytest.mark.parametrize(
        "k,rows,sizes", [(13, 4, [4, 4, 5]), (13, 3, [3, 3, 3, 4]), (13, 5, [5, 5, 3]), (1, 4, [1])]
    )
    def test_block_sizes(self, k, rows, sizes):
        """At most ``rows`` rows per block; a lone trailing row joins the block before it."""
        transform = sample_transform(DenseGaussian(), k, self.D, SeedSpec(90, 0))
        fresh = [(start, len(block)) for start, block in transform.row_blocks(rows)]
        transform.entries
        views = [(start, len(block)) for start, block in transform.row_blocks(rows)]
        assert fresh == views == list(zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))

    @pytest.mark.parametrize("rows", [1, 3, 4, 13])
    @pytest.mark.parametrize("kind", KINDS[:3], ids=lambda k: type(k).__name__)
    def test_join_is_the_entries(self, kind, rows):
        """The fresh blocks join, bit for bit, into the entries; k*d = 2600
        is no multiple of 8 for the Rademacher bits of a block."""
        fresh = sample_transform(kind, 13, self.D + 1, SeedSpec(91, 0))
        blocks = [block.copy() for _, block in fresh.row_blocks(rows)]
        entries = sample_transform(kind, 13, self.D + 1, SeedSpec(91, 0)).entries
        assert np.array_equal(np.vstack(blocks), entries)

    @pytest.mark.parametrize("rows", [3, 4, 5])
    @pytest.mark.parametrize("kind", KINDS[:3], ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense_input", "sparse_input"])
    def test_fresh_transform_bitwise_its_entries(self, kind, sparse, rows, monkeypatch):
        """Blocks of ``rows`` rows, one of them with the lone trailing row:
        a fresh transform gives the deltas it gives once its entries are read."""
        k = 13
        monkeypatch.setattr(apply_module, "_SCRATCH_BYTES", rows * 8 * self.D)
        assert apply_module._block_rows(sample_transform(kind, k, self.D, SeedSpec(92, 0))) == rows
        if sparse:
            xs = sample_sparse_unit_batch(self.D, 6, 40, SeedSpec(92, 1))
        else:
            xs = sample_unit_sphere_batch(self.D, 40, SeedSpec(92, 1))
        fresh = distortion_batch(sample_transform(kind, k, self.D, SeedSpec(92, 0)), xs)
        transform = sample_transform(kind, k, self.D, SeedSpec(92, 0))
        transform.entries
        assert np.array_equal(fresh, distortion_batch(transform, xs))
        expected = [float(y @ y) - 1.0 for y in (transform.entries @ _densify(x) for x in xs)]
        assert np.max(np.abs(fresh - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS[:3], ids=lambda k: type(k).__name__)
    def test_projection_leaves_the_entries_undrawn(self, kind):
        transform = sample_transform(kind, 13, self.D, SeedSpec(93, 0))
        distortion_batch(transform, sample_unit_sphere_batch(self.D, 5, SeedSpec(93, 1)))
        assert "entries" not in vars(transform)

    @pytest.mark.parametrize("kind", KINDS[:3], ids=lambda k: type(k).__name__)
    def test_per_vector_calls_keep_the_entries(self, kind):
        """apply and distortion go one vector at a time, so they draw a
        fresh transform once and keep it, with the deltas of a fresh one."""
        xs = sample_unit_sphere_batch(self.D, 3, SeedSpec(93, 1))
        fresh = [distortion_batch(sample_transform(kind, 13, self.D, SeedSpec(93, 0)), x.batch())[0] for x in xs]
        for project in (apply, distortion):
            transform = sample_transform(kind, 13, self.D, SeedSpec(93, 0))
            project(transform, xs[0])
            assert "entries" in vars(transform)
        assert [distortion(transform, x) for x in xs] == fresh

    @pytest.mark.parametrize(
        "kind,extra",
        [(DenseGaussian(), 0), (AchlioptasSparse(), 400 * 10_000)],
        ids=["DenseGaussian", "AchlioptasSparse"],
    )
    def test_peak_is_one_block(self, kind, extra):
        """A fresh k = 400, d = 10^4 transform (32 MB) projected onto a small
        dense batch holds one 104-row block (8.3 MB) at a time; Achlioptas
        also holds its k*d byte draw."""
        xs = sample_unit_sphere_batch(10_000, 20, SeedSpec(94, 1))
        transform = sample_transform(kind, 400, 10_000, SeedSpec(94, 0))
        block = 104 * 10_000 * 8
        assert _traced_peak(transform, xs) <= extra + block + (1 << 20)
