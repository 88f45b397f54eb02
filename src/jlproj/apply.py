"""Projection and distortion: one batched kernel that returns one ``(n, k)`` array.

The kernel fills and returns the whole C-ordered float64 output ``Y`` of an
:class:`~jlproj.core.InputBatch`, ``Y[i] = R x_i``.  Only the input side is
chunked: the batch is cut into row slices of consecutive rows, each capped
by a fixed scratch budget, and each slice's product is written into its
rows of ``Y``.  A slice ``X`` is a view of the dense ``(c, d)`` block, or a
CSR matrix that reads the slice's value rows in place, with its own int32
indices.

A dense transform is projected in row blocks of at most
``_SCRATCH_BYTES // (8 d)`` rows (:meth:`~jlproj.constructions.
DenseTransform.row_blocks`): a sampled one is drawn a block at a time as
it is projected, and the join of its blocks is the documented one-call
draw, so no whole ``k x d`` transform is held; once its ``entries`` have
been read the blocks are views of them.  :func:`apply` and
:func:`distortion` take one input, a one-row batch such as ``batch[i]``,
and read them first, so a transform applied vector by vector is drawn
once.  For a dense batch ``Y`` is filled block by block,
``Y[start:end, a:b] = X @ block.T`` per slice, and the graph construction
multiplies each slice by the ``(d, k)`` CSR matrix of its ±1 signs.

A sparse batch meets every family through one C-ordered float64 ``(u, k)``
support operator ``op``, whose row j is the transform's column at the
batch's j-th support column (its ``u`` sorted distinct columns, cached on
the batch): a dense transform's blocks fill it, and the graph construction
scatters each column's ±1 signs into its ``s`` rows of zeros.  Each slice
is one CSR-by-dense product ``X @ op`` with its indices remapped into the
support.  The remap is monotone, so each row still adds its terms in
index order and every delta is bitwise that of the whole operator; a batch
that uses all ``d`` columns takes the whole ``(d, k)`` operator.  The
graph construction's ``1/sqrt(s)`` scale is applied to ``Y`` once, at the
end.

Accumulation order: for the graph construction each output coordinate adds
its terms in the input's index order, in both kernels, so results do not
depend on the slicing and a sparse input and its densified copy agree
bitwise.  The support operator's zeros add ±0 to a sum that starts at +0,
which leaves the sum unchanged, so they move no bit either (a finite input
is assumed: an infinite or NaN entry times a zero is NaN, and the
unit-norm gate of :func:`distortion_batch` rejects such rows).  For a dense
transform the product is one BLAS call per slice and block on a dense
batch, whose summation order is the library's.

Epilogue: the squared norms |y|^2 of all rows come from one batched
``(1, k) @ (k, 1)`` matmul over ``Y``, which runs the same dot kernel per
row as ``y @ y``, so deltas are bitwise those of a per-row loop.  The
unit-norm gate reads the batch's cached row norms
(:attr:`~jlproj.core.InputBatch.norms`), so the norms of a batch shared
by many transforms are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .constructions import DenseTransform, SparseColumnLayout, Transform
from .core import InputBatch, check_entry_budget

# Inputs handed to distortion_batch() may have been round-tripped
# through files, so the unit-norm gate is looser than the generators' 1e-12.
UNIT_NORM_TOL = 1e-9

# Bytes of an input slice's rows plus its product, and of one row block of
# a dense transform: at d = 10^4 a dense slice holds about 100 rows and a
# block 104, so a paper-scale batch of 5000 never has a CSR copy, nor a
# k = 400 transform, held as one block.
_SCRATCH_BYTES = 1 << 23


@dataclass
class WorkCounter:
    """Counts stored transform entries touched by projections: the entries
    a product uses, nnz(x) * s per input for the graph construction, not the
    zero rows of the support operator it multiplies."""

    entries_touched: int = 0


def _block_rows(transform: DenseTransform) -> int:
    """Rows per block of a dense transform: a block takes at most the scratch budget."""
    return max(1, _SCRATCH_BYTES // (8 * transform.d))


def _operator(transform: Transform, xs: InputBatch) -> np.ndarray:
    """C-ordered float64 (u, k) operator of the sparse batch ``xs``: row j
    is the transform's column ``xs.support[j]``, unscaled ±1 signs for the
    graph construction."""
    cols = xs.support
    check_entry_budget("support operator", len(cols), transform.k)
    full = len(cols) == transform.d
    if isinstance(transform, SparseColumnLayout):
        rows, signs = (transform.rows, transform.signs) if full else (transform.rows[cols], transform.signs[cols])
        op = np.zeros((len(cols), transform.k))
        op[np.arange(len(cols))[:, None], rows] = signs
        return op
    op = np.empty((len(cols), transform.k))
    for a, block in transform.row_blocks(_block_rows(transform)):
        op[:, a : a + len(block)] = block.T if full else block[:, cols].T
    return op


def _check_dimension(transform: Transform, xs: InputBatch) -> None:
    if xs.dim != transform.d:
        raise ValueError(f"input dimension {xs.dim} does not match the transform's d={transform.d}")


def _project(transform: Transform, xs: InputBatch, counter: WorkCounter | None) -> np.ndarray:
    """C-ordered float64 (n, k) array Y with Y[i] = R xs[i], for ``xs``
    whose dimension the caller checked.

    Y is held whole; only the input side is chunked, in row slices of
    ``rows`` rows under the scratch budget, and each slice's product is
    written into its rows of Y.  The products use only the columns of each
    input's support: nnz(x) * s stored entries of the graph construction,
    k * nnz(x) of a dense transform.  A dense transform is projected one
    row block at a time: one whose entries have not been read is drawn
    afresh on each call, and at most one of its blocks is held.
    """
    graph = isinstance(transform, SparseColumnLayout)
    n, nnz = xs.values.shape
    rows = max(1, _SCRATCH_BYTES // (8 * ((1 if xs.indices is None else 2) * nnz + transform.k)))
    Y = np.empty((n, transform.k))
    if xs.indices is not None:
        op = _operator(transform, xs)
        # Position of each support column in the operator; only those are read.
        pos = np.empty(xs.dim, dtype=np.int32)
        pos[xs.support] = np.arange(len(op), dtype=np.int32)
        indptr = np.arange(min(rows, n) + 1, dtype=np.int32) * nnz
        for start in range(0, n, rows):
            values = xs.values[start : start + rows]
            c = len(values)
            # int32 indices and indptr keep scipy from widening the indices to
            # int64.  They and the values are set on an empty array: the
            # constructor's check would copy values that view less than half the
            # batch (its prune), so the slice reads the batch's value rows in place.
            X = csr_array((c, len(op)))
            X.data, X.indices, X.indptr = values.ravel(), pos[xs.indices[start : start + rows]].ravel(), indptr[: c + 1]
            Y[start : start + c] = X @ op
    elif graph:
        indptr = np.arange(0, transform.d * transform.s + 1, transform.s)
        signs = csr_array((transform.signs.ravel(), transform.rows.ravel(), indptr), shape=(transform.d, transform.k))
        for start in range(0, n, rows):
            # A dense-by-CSR product comes back transposed; its copy into Y
            # makes the rows contiguous, or the epilogue's dot would take
            # another summation kernel.
            Y[start : start + rows] = xs.values[start : start + rows] @ signs
    else:
        for a, block in transform.row_blocks(_block_rows(transform)):
            for start in range(0, n, rows):
                Y[start : start + rows, a : a + len(block)] = xs.values[start : start + rows] @ block.T
    if graph:
        Y *= transform.scale
    if counter is not None:
        counter.entries_touched += n * nnz * (transform.s if graph else transform.k)
    return Y


def _check_one_row(x: InputBatch) -> None:
    if len(x) != 1:
        raise ValueError(f"a single input is a one-row batch, got {len(x)} rows")


def _held(transform: Transform) -> Transform:
    """``transform``, with a dense one's entries read and so kept: a
    transform applied vector by vector is drawn once, not once per vector."""
    if isinstance(transform, DenseTransform):
        transform.entries  # noqa: B018 - the read draws and caches them
    return transform


def apply(transform: Transform, x: InputBatch, counter: WorkCounter | None = None) -> np.ndarray:
    """Exact float64 map y = Rx of the one-row batch ``x``: the kernel on one row.

    A dense transform's entries are read, and so kept on it, as by
    :func:`distortion`.
    """
    _check_one_row(x)
    _check_dimension(transform, x)
    return _project(_held(transform), x, counter)[0]


def distortion(transform: Transform, x: InputBatch, counter: WorkCounter | None = None) -> float:
    """Squared-norm distortion delta = |Rx|^2 - 1 of the one-row batch ``x``, a unit vector.

    A dense transform's entries are read, and so kept on it: a caller that
    goes vector by vector draws the transform once, at the memory cost of
    the whole k x d transform.
    """
    _check_one_row(x)
    return float(distortion_batch(_held(transform), x, counter)[0])


def distortion_batch(transform: Transform, xs: InputBatch, counter: WorkCounter | None = None) -> np.ndarray:
    """float64 array of delta = |Rx|^2 - 1 for each row x of ``xs``, in order.

    The batch's dimension is checked first, then every row's norm (cached
    on the batch) must be within UNIT_NORM_TOL of 1 (a NaN or infinite norm
    fails); the rows are then projected into one (n, k) array, whose squared
    row norms come from one batched matmul.  A sampled dense
    transform whose entries have not been read is drawn again, row block
    by row block, on every call: a caller that projects one transform onto
    several batches reads its ``entries`` once first, or stacks the batches.
    """
    _check_dimension(transform, xs)
    norms = xs.norms
    bad = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)
    if bad.any():
        raise ValueError(f"distortion requires a unit vector, got |x| = {float(norms[bad][0])!r}")
    Y = _project(transform, xs, counter)
    # Per row, numpy's matmul runs the same dot kernel as y @ y (an einsum
    # would sum in another order), so deltas are bitwise a per-row loop's.
    return np.matmul(Y[:, None, :], Y[:, :, None])[:, 0, 0] - 1.0
