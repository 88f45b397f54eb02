"""Matrix-vector application and distortion: one path per transform type.

A dense input is indexed as the full support, so dense and sparse inputs
share each path.  Accumulation order is fixed: each output coordinate sums
its contributions in index order of the input's support (scatter kernels
run element-by-element over support-major order), so a sparse input and
its densified copy agree to within documented float tolerance rather than
by accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import SparseColumnLayout, Transform
from .core import InputVector

# Input vectors handed to distortion_batch() may have been round-tripped
# through files, so the unit-norm gate is looser than the generators' 1e-12.
UNIT_NORM_TOL = 1e-9


@dataclass
class WorkCounter:
    """Counts stored transform entries touched by apply calls."""

    entries_touched: int = 0


def apply(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> np.ndarray:
    """Exact float64 linear map y = Rx.

    Only the columns of the input's support are read: nnz(x) * s stored
    entries of the graph construction, k * nnz(x) of a dense transform.
    """
    if x.dim != transform.d:
        raise ValueError(f"vector dimension {x.dim} does not match transform d={transform.d}")
    idx = slice(None) if x.indices is None else x.indices

    if isinstance(transform, SparseColumnLayout):
        if counter is not None:
            counter.entries_touched += x.nnz * transform.s
        contrib = transform.signs[idx] * x.values[:, None]
        y = np.bincount(transform.rows[idx].ravel(), weights=contrib.ravel(), minlength=transform.k)
        y *= transform.scale
        return y

    if counter is not None:
        counter.entries_touched += transform.k * x.nnz
    return transform.entries[:, idx] @ x.values


def distortion(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> float:
    """Squared-norm distortion delta = |Rx|^2 - 1 for a unit vector x: a batch of one."""
    return float(distortion_batch(transform, [x], counter)[0])


def distortion_batch(
    transform: Transform, xs: list[InputVector], counter: WorkCounter | None = None
) -> np.ndarray:
    """float64 array of delta = |Rx|^2 - 1 for each unit vector x of ``xs``, in order."""
    for i, x in enumerate(xs):
        if x.dim != transform.d:
            raise ValueError(
                f"vector at index {i} has dimension {x.dim}, transform expects d={transform.d}"
            )
    deltas = np.empty(len(xs))
    for i, x in enumerate(xs):
        norm = np.sqrt(x.sq_norm())
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"distortion requires a unit vector, got |x| = {norm!r}")
        y = apply(transform, x, counter)
        deltas[i] = float(y @ y) - 1.0
    return deltas
