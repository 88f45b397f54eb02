"""Projection and distortion: one batched kernel, one matrix product per chunk.

An :class:`~jlproj.core.InputBatch` is cut into chunks of consecutive rows,
each capped by a fixed scratch budget.  A chunk is a row slice ``X`` of the
batch (a view of the dense ``(c, d)`` block, or a CSR matrix built from the
slice's values and indices) and is projected with one product
``Y = X @ op``: ``op`` is ``entries.T`` for a dense transform, and for the
graph construction the ``(d, k)`` CSR matrix of its ±1 signs, with the
``1/sqrt(s)`` scale applied to ``Y`` afterwards.

Sparse input, dense transform: ``op`` is the C-ordered ``(u, k)`` copy of
the rows of ``entries.T`` in the batch's support (its ``u`` sorted distinct
columns, cached on the batch), and each chunk's indices are remapped into
it.  The remap is monotone, so each row still adds its terms in index
order and every delta is bitwise that of the whole operator; a batch that
uses all ``d`` columns multiplies the whole ``entries.T`` copy instead.

Accumulation order: for the graph construction each output coordinate adds
its terms in CSR column order, i.e. in index order of the input's support,
so results do not depend on the chunking and a sparse input and its
densified copy agree bitwise.  For a dense transform the product is one
BLAS call per chunk, whose summation order is the library's.

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

from .constructions import SparseColumnLayout, Transform
from .core import InputBatch, InputVector

# Inputs handed to distortion_batch() may have been round-tripped
# through files, so the unit-norm gate is looser than the generators' 1e-12.
UNIT_NORM_TOL = 1e-9

# Bytes of a chunk's input rows plus its output: at d = 10^4 a dense chunk
# holds about 100 rows, so a paper-scale batch of 5000 never has its
# output or a CSR copy held as one block.
_SCRATCH_BYTES = 1 << 23


@dataclass
class WorkCounter:
    """Counts stored transform entries touched by projections."""

    entries_touched: int = 0


def _operator(transform: Transform):
    """Right operand ``op`` of ``Y = X @ op``, shape (d, k)."""
    if isinstance(transform, SparseColumnLayout):
        d, s = transform.d, transform.s
        indptr = np.arange(0, d * s + 1, s)
        return csr_array((transform.signs.ravel(), transform.rows.ravel(), indptr), shape=(d, transform.k))
    return transform.entries.T


def _check_dimension(transform: Transform, xs: InputBatch) -> None:
    if xs.dim != transform.d:
        raise ValueError(f"input dimension {xs.dim} does not match the transform's d={transform.d}")


def _project(transform: Transform, xs: InputBatch, counter: WorkCounter | None):
    """(start, Y) per chunk of rows of ``xs``, whose dimension the caller
    checked; Y is C-contiguous with Y[i] = R xs[start + i].

    The products use only the columns of each input's support: nnz(x) * s
    stored entries of the graph construction, k * nnz(x) of a dense
    transform.  Sparse chunks of a dense transform multiply a C-ordered
    copy of the rows of ``entries.T`` in the batch's support, made once
    here: given the transposed view, scipy would copy it per chunk.
    """
    graph = isinstance(transform, SparseColumnLayout)
    op = _operator(transform)
    cols = None
    if xs.indices is not None and not graph:
        cols = xs.support
        if len(cols) == transform.d:
            op, cols = np.ascontiguousarray(op), None
        else:
            op = op[cols]
    n, nnz = xs.values.shape
    rows = max(1, _SCRATCH_BYTES // (8 * ((1 if xs.indices is None else 2) * nnz + transform.k)))
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
        if counter is not None:
            counter.entries_touched += c * nnz * (transform.s if graph else transform.k)
        yield start, Y


def apply(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> np.ndarray:
    """Exact float64 linear map y = Rx: a batch of one of the projection kernel."""
    xs = x.batch()
    _check_dimension(transform, xs)
    [(_, Y)] = _project(transform, xs, counter)
    return Y[0]


def distortion(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> float:
    """Squared-norm distortion delta = |Rx|^2 - 1 for a unit vector x: a batch of one."""
    return float(distortion_batch(transform, x.batch(), counter)[0])


def distortion_batch(transform: Transform, xs: InputBatch, counter: WorkCounter | None = None) -> np.ndarray:
    """float64 array of delta = |Rx|^2 - 1 for each row x of ``xs``, in order.

    The batch's dimension is checked first, then every row's norm (cached
    on the batch) must be within UNIT_NORM_TOL of 1 (a NaN or infinite norm
    fails); the rows are then projected chunk by chunk.
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
