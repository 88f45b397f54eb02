"""Projection and distortion: one batched kernel, one matrix product per chunk.

A list of inputs is cut into chunks: runs of consecutive vectors with the
same storage and the same nnz, each capped by a fixed scratch budget.  A
chunk is stacked into ``X`` (a dense ``(c, d)`` array, or a CSR matrix of
the vectors' indices and values) and projected with one product
``Y = X @ op``: ``op`` is ``entries.T`` for a dense transform, and for the
graph construction the ``(d, k)`` CSR matrix of its ±1 signs, with the
``1/sqrt(s)`` scale applied to ``Y`` afterwards.

Accumulation order: for the graph construction each output coordinate adds
its terms in CSR column order, i.e. in index order of the input's support,
so results do not depend on the chunking and a sparse input and its
densified copy agree bitwise.  For a dense transform the product is one
BLAS call per chunk, whose summation order is the library's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np
from scipy.sparse import csr_array, issparse

from .constructions import SparseColumnLayout, Transform
from .core import InputVector

# Input vectors handed to distortion_batch() may have been round-tripped
# through files, so the unit-norm gate is looser than the generators' 1e-12.
UNIT_NORM_TOL = 1e-9

# Bytes of stacked input plus output per chunk: at d = 10^4 a dense chunk
# holds about 100 vectors, so a paper-scale batch of 5000 is never copied
# into one block.
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


def _chunks(xs: list[InputVector], k: int):
    """(start, chunk) runs of one storage and nnz, each within _SCRATCH_BYTES."""
    start = 0
    for (sparse, nnz), run in groupby(xs, key=lambda x: (x.indices is not None, x.nnz)):
        run = list(run)
        rows = max(1, _SCRATCH_BYTES // (8 * ((2 if sparse else 1) * nnz + k)))
        for i in range(0, len(run), rows):
            yield start + i, run[i : i + rows]
        start += len(run)


def _check_dimensions(transform: Transform, xs: list[InputVector]) -> None:
    for i, x in enumerate(xs):
        if x.dim != transform.d:
            raise ValueError(f"vector at index {i} has dimension {x.dim}, transform expects d={transform.d}")


def _project(transform: Transform, xs: list[InputVector], counter: WorkCounter | None):
    """(start, Y) per chunk of ``xs``, whose dimensions the caller checked;
    Y is C-contiguous with Y[i] = R xs[start + i].

    The products use only the columns of each input's support: nnz(x) * s
    stored entries of the graph construction, k * nnz(x) of a dense
    transform (for a sparse chunk scipy first copies ``entries.T`` into C
    order).
    """
    graph = isinstance(transform, SparseColumnLayout)
    op = _operator(transform)
    for start, chunk in _chunks(xs, transform.k):
        c, nnz = len(chunk), chunk[0].nnz
        X = np.array([x.values for x in chunk])
        if chunk[0].indices is not None:
            indices = np.array([x.indices for x in chunk]).ravel()
            X = csr_array((X.ravel(), indices, np.arange(c + 1) * nnz), shape=(c, transform.d))
        Y = X @ op
        # A sparse product comes back as CSR, a dense-by-CSR one transposed;
        # rows must be contiguous, or y @ y takes another summation kernel.
        Y = Y.toarray() if issparse(Y) else np.ascontiguousarray(Y)
        if graph:
            Y *= transform.scale
        if counter is not None:
            counter.entries_touched += c * nnz * (transform.s if graph else transform.k)
        yield start, Y


def apply(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> np.ndarray:
    """Exact float64 linear map y = Rx: a batch of one of the projection kernel."""
    _check_dimensions(transform, [x])
    [(_, Y)] = _project(transform, [x], counter)
    return Y[0]


def distortion(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> float:
    """Squared-norm distortion delta = |Rx|^2 - 1 for a unit vector x: a batch of one."""
    return float(distortion_batch(transform, [x], counter)[0])


def distortion_batch(
    transform: Transform, xs: list[InputVector], counter: WorkCounter | None = None
) -> np.ndarray:
    """float64 array of delta = |Rx|^2 - 1 for each unit vector x of ``xs``, in order.

    Dimensions are checked for every vector first (the error names the
    index), then unit norms; the vectors are then projected chunk by chunk.
    """
    _check_dimensions(transform, xs)
    for x in xs:
        norm = np.sqrt(x.sq_norm())
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"distortion requires a unit vector, got |x| = {norm!r}")
    deltas = np.empty(len(xs))
    for start, Y in _project(transform, xs, counter):
        deltas[start : start + len(Y)] = [float(y @ y) - 1.0 for y in Y]
    return deltas
