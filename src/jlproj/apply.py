"""Matrix-vector application and distortion, with a sparse-input fast path.

Accumulation order is fixed: each output coordinate sums its contributions
in index order of the input's support (scatter kernels run element-by-
element over support-major order), so the sparse and dense paths agree to
within documented float tolerance rather than by accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import SparseColumnLayout, Transform
from .core import InputVector

# Input vectors handed to distortion() may have been round-tripped through
# files, so the unit-norm gate is looser than the generators' 1e-12.
UNIT_NORM_TOL = 1e-9


@dataclass
class WorkCounter:
    """Counts stored transform entries touched by apply calls."""

    entries_touched: int = 0


def apply(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> np.ndarray:
    """Exact float64 linear map y = Rx.

    For a sparse input against the graph construction only the
    nnz(x) * s stored entries of the touched columns are read.
    """
    if x.dim != transform.d:
        raise ValueError(f"vector dimension {x.dim} does not match transform d={transform.d}")

    if isinstance(transform, SparseColumnLayout):
        if x.indices is None:
            rows, signs, vals = transform.rows, transform.signs, x.values
        else:
            rows, signs, vals = transform.rows[x.indices], transform.signs[x.indices], x.values
        if counter is not None:
            counter.entries_touched += vals.size * transform.s
        contrib = signs * vals[:, None]
        y = np.bincount(rows.ravel(), weights=contrib.ravel(), minlength=transform.k)
        y *= transform.scale
        return y

    if x.indices is None:
        if counter is not None:
            counter.entries_touched += transform.k * transform.d
        return transform.entries @ x.values
    if counter is not None:
        counter.entries_touched += transform.k * x.values.size
    return transform.entries[:, x.indices] @ x.values


def distortion(transform: Transform, x: InputVector, counter: WorkCounter | None = None) -> float:
    """Squared-norm distortion delta = |Rx|^2 - 1 for a unit vector x."""
    norm = np.sqrt(x.sq_norm())
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"distortion requires a unit vector, got |x| = {norm!r}")
    y = apply(transform, x, counter)
    return float(y @ y) - 1.0


def distortion_batch(
    transform: Transform, xs: list[InputVector], counter: WorkCounter | None = None
) -> np.ndarray:
    """float64 array of the distortion of each vector in order; element i equals the scalar call."""
    for i, x in enumerate(xs):
        if x.dim != transform.d:
            raise ValueError(
                f"vector at index {i} has dimension {x.dim}, transform expects d={transform.d}"
            )
    return np.array([distortion(transform, x, counter) for x in xs], dtype=np.float64)
