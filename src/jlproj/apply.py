"""Projection and distortion: one batched kernel, one matrix product per chunk.

An :class:`~jlproj.core.InputBatch` is cut into chunks of consecutive rows,
each capped by a fixed scratch budget.  A chunk is a row slice ``X`` of the
batch (a view of the dense ``(c, d)`` block, or a CSR matrix built from the
slice's values and indices).

A dense transform is projected in row blocks of at most
``_SCRATCH_BYTES // (8 d)`` rows (:meth:`~jlproj.constructions.
DenseTransform.row_blocks`): a sampled one is drawn a block at a time as
it is projected, and the join of its blocks is the documented one-call
draw, so no whole ``k x d`` transform is held; once its ``entries`` have
been read the blocks are views of them.  The per-vector :func:`apply` and
:func:`distortion` read them first, so a transform applied vector by
vector is drawn once.  For a dense batch the whole
``(n, k)`` output is filled block by block, ``Y[:, a:b] = X @ block.T`` per
chunk.  For a sparse batch the blocks' rows in the batch's support (its
``u`` sorted distinct columns, cached on the batch) fill the C-ordered
``(u, k)`` support operator ``op``, and each chunk is one product
``Y = X @ op`` with its indices remapped into it.  The remap is monotone,
so each row still adds its terms in index order and every delta is
bitwise that of the whole operator; a batch that uses all ``d`` columns
multiplies the whole ``(d, k)`` operator instead.  The graph construction
multiplies each chunk by the ``(d, k)`` CSR matrix of its ±1 signs, with
the ``1/sqrt(s)`` scale applied to ``Y`` afterwards.

Accumulation order: for the graph construction each output coordinate adds
its terms in CSR column order, i.e. in index order of the input's support,
so results do not depend on the chunking and a sparse input and its
densified copy agree bitwise.  For a dense transform the product is one
BLAS call per chunk and block, whose summation order is the library's.

Epilogue: each chunk's squared norms |y|^2 come from one batched
``(1, k) @ (k, 1)`` matmul over its rows, which runs the same dot kernel
per row as ``y @ y``, so deltas are bitwise those of a per-row loop.  The
unit-norm gate reads the batch's cached row norms
(:attr:`~jlproj.core.InputBatch.norms`), so the norms of a batch shared
by many transforms are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array, issparse

from .constructions import DenseTransform, SparseColumnLayout, Transform
from .core import InputBatch, InputVector

# Inputs handed to distortion_batch() may have been round-tripped
# through files, so the unit-norm gate is looser than the generators' 1e-12.
UNIT_NORM_TOL = 1e-9

# Bytes of a chunk's input rows plus its output, and of one row block of a
# dense transform: at d = 10^4 a dense chunk holds about 100 rows and a
# block 104, so a paper-scale batch of 5000 never has a CSR copy, nor a
# k = 400 transform, held as one block.
_SCRATCH_BYTES = 1 << 23


@dataclass
class WorkCounter:
    """Counts stored transform entries touched by projections."""

    entries_touched: int = 0


def _block_rows(transform: DenseTransform) -> int:
    """Rows per block of a dense transform: a block takes at most the scratch budget."""
    return max(1, _SCRATCH_BYTES // (8 * transform.d))


def _operator(transform: Transform, xs: InputBatch):
    """Right operand ``op`` of ``Y = X @ op`` for a sparse batch or the
    graph construction, and the sorted columns that its rows stand for
    (None when they are all ``d``): the graph construction's (d, k) CSR
    sign matrix, or a dense transform's C-ordered (u, k) support operator,
    filled from its row blocks."""
    if isinstance(transform, SparseColumnLayout):
        d, s = transform.d, transform.s
        indptr = np.arange(0, d * s + 1, s)
        return csr_array((transform.signs.ravel(), transform.rows.ravel(), indptr), shape=(d, transform.k)), None
    cols = xs.support
    if len(cols) == transform.d:
        cols = None
    op = np.empty((transform.d if cols is None else len(cols), transform.k))
    for a, block in transform.row_blocks(_block_rows(transform)):
        op[:, a : a + len(block)] = block.T if cols is None else block[:, cols].T
    return op, cols


def _dense_products(transform: DenseTransform, X: np.ndarray, rows: int):
    """(start, Y) per chunk of ``rows`` rows of the dense block ``X``: the
    whole (n, k) product is filled one transform block at a time,
    ``Y[:, a:b] = X_chunk @ block.T``, then handed out in chunks."""
    n = len(X)
    Y = np.empty((n, transform.k))
    for a, block in transform.row_blocks(_block_rows(transform)):
        for start in range(0, n, rows):
            Y[start : start + rows, a : a + len(block)] = X[start : start + rows] @ block.T
    for start in range(0, n, rows):
        yield start, Y[start : start + rows]


def _chunk_products(transform: Transform, xs: InputBatch, rows: int):
    """(start, Y) per chunk of ``rows`` rows of ``xs``, each one product
    with the operator of :func:`_operator`."""
    graph = isinstance(transform, SparseColumnLayout)
    op, cols = _operator(transform, xs)
    n, nnz = xs.values.shape
    for start in range(0, n, rows):
        X = xs.values[start : start + rows]
        c = len(X)
        if xs.indices is not None:
            indices = xs.indices[start : start + rows].ravel()
            if cols is not None:
                indices = np.searchsorted(cols, indices)
            X = csr_array((X.ravel(), indices, np.arange(c + 1) * nnz), shape=(c, op.shape[0]))
        Y = X @ op
        # A sparse product comes back as CSR, a dense-by-CSR one transposed;
        # rows must be contiguous, or the epilogue's dot takes another summation kernel.
        Y = Y.toarray() if issparse(Y) else np.ascontiguousarray(Y)
        if graph:
            Y *= transform.scale
        yield start, Y


def _check_dimension(transform: Transform, xs: InputBatch) -> None:
    if xs.dim != transform.d:
        raise ValueError(f"input dimension {xs.dim} does not match the transform's d={transform.d}")


def _project(transform: Transform, xs: InputBatch, counter: WorkCounter | None):
    """(start, Y) per chunk of rows of ``xs``, whose dimension the caller
    checked; Y is C-contiguous with Y[i] = R xs[start + i].

    The products use only the columns of each input's support: nnz(x) * s
    stored entries of the graph construction, k * nnz(x) of a dense
    transform.  A dense transform is projected one row block at a time: one
    whose entries have not been read is drawn afresh on each call, and at
    most one of its blocks is held.
    """
    graph = isinstance(transform, SparseColumnLayout)
    n, nnz = xs.values.shape
    rows = max(1, _SCRATCH_BYTES // (8 * ((1 if xs.indices is None else 2) * nnz + transform.k)))
    if xs.indices is None and not graph:
        products = _dense_products(transform, xs.values, rows)
    else:
        products = _chunk_products(transform, xs, rows)
    for start, Y in products:
        if counter is not None:
            counter.entries_touched += len(Y) * nnz * (transform.s if graph else transform.k)
        yield start, Y


def _held(transform: Transform) -> Transform:
    """``transform``, with a dense one's entries read and so kept: a
    transform applied vector by vector is drawn once, not once per vector."""
    if isinstance(transform, DenseTransform):
        transform.entries  # noqa: B018 - the read draws and caches them
    return transform


def apply(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> np.ndarray:
    """Exact float64 linear map y = Rx: a batch of one of the projection kernel.

    A dense transform's entries are read, and so kept on it, as by
    :func:`distortion`.
    """
    xs = x.batch()
    _check_dimension(transform, xs)
    [(_, Y)] = _project(_held(transform), xs, counter)
    return Y[0]


def distortion(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> float:
    """Squared-norm distortion delta = |Rx|^2 - 1 for a unit vector x: a batch of one.

    A dense transform's entries are read, and so kept on it: a caller that
    goes vector by vector draws the transform once, at the memory cost of
    the whole k x d transform.
    """
    return float(distortion_batch(_held(transform), x.batch(), counter)[0])


def distortion_batch(transform: Transform, xs: InputBatch, counter: WorkCounter | None = None) -> np.ndarray:
    """float64 array of delta = |Rx|^2 - 1 for each row x of ``xs``, in order.

    The batch's dimension is checked first, then every row's norm (cached
    on the batch) must be within UNIT_NORM_TOL of 1 (a NaN or infinite norm
    fails); the rows are then projected chunk by chunk.  A sampled dense
    transform whose entries have not been read is drawn again, row block
    by row block, on every call: a caller that projects one transform onto
    several batches reads its ``entries`` once first, or stacks the batches.
    """
    _check_dimension(transform, xs)
    norms = xs.norms
    bad = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)
    if bad.any():
        raise ValueError(f"distortion requires a unit vector, got |x| = {float(norms[bad][0])!r}")
    deltas = np.empty(len(xs))
    for start, Y in _project(transform, xs, counter):
        # Per row, numpy's matmul runs the same dot kernel as y @ y (an
        # einsum would sum in another order), so deltas are bitwise unchanged.
        deltas[start : start + len(Y)] = np.matmul(Y[:, None, :], Y[:, :, None])[:, 0, 0] - 1.0
    return deltas
