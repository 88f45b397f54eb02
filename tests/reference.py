"""An independent reference for the CSV rows of sweep-s, sweep-t, sweep-k and cdf.

Every number is rebuilt from the documented contract: the stream layout
and role values in the `jlproj.experiments` docstring, the cell order of
each runner, nearest-rank quantiles, the cdf grid and tail table, and the
mean and sample std over trials (std 0.0 for one trial).  From the package
it takes only the samplers, `SeedSpec` and, through them, `derive_stream`,
whose draws the draw-digest tests pin.  Each transform is made a dense
float64 (k, d) matrix, a graph layout expanded with its 1/sqrt(s) scale,
each input a dense row, and every delta is |Rx|^2 - 1 in float64.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

import numpy as np

from jlproj.constructions import sample_transform
from jlproj.core import (
    AchlioptasSparse,
    DenseGaussian,
    GraphSparse,
    SeedSpec,
    sample_sparse_unit_batch,
    sample_unit_sphere_batch,
)

VECTOR_ROLE = 1 << 60
TRANSFORM_ROLE = 2 << 60
FAMILIES = ("dense", "sparse")


def _kind(construction: str, s: int):
    return {"Dense": DenseGaussian(), "Ach": AchlioptasSparse(), "Sparse": GraphSparse(s)}[construction]


def _matrix(construction: str, s: int, k: int, d: int, seed: SeedSpec) -> np.ndarray:
    """The (k, d) transform as float64 entries; column i of a graph layout
    holds its signs over sqrt(s) in its s rows."""
    transform = sample_transform(_kind(construction, s), k, d, seed)
    if construction != "Sparse":
        return np.array(transform.entries)
    R = np.zeros((k, d))
    R[transform.rows, np.arange(d)[:, None]] = transform.signs / math.sqrt(s)
    return R


def _rows(batch) -> np.ndarray:
    """The (n, d) rows of an input batch, a sparse one scattered into zeros."""
    if batch.indices is None:
        return np.array(batch.values)
    X = np.zeros((len(batch.values), batch.dim))
    np.put_along_axis(X, batch.indices.astype(np.intp), batch.values, axis=1)
    return X


def _inputs(seed: int, d: int, t: int, n: int, batch: int, family: str) -> np.ndarray:
    spec = SeedSpec(seed, VECTOR_ROLE | batch)
    if family == "dense":
        return _rows(sample_unit_sphere_batch(d, n, spec))
    return _rows(sample_sparse_unit_batch(d, t, n, spec))


def _cell(seed: int, cell: int, construction: str, s: int, k: int, X: np.ndarray, trials: int) -> np.ndarray:
    """(trials, n) deltas of one cell: trial i projects with the transform of
    stream TRANSFORM_ROLE | cell << 32 | i."""
    deltas = np.empty((trials, len(X)))
    for i in range(trials):
        R = _matrix(construction, s, k, X.shape[1], SeedSpec(seed, TRANSFORM_ROLE | cell << 32 | i))
        Y = X @ R.T
        deltas[i] = (Y * Y).sum(axis=1) - 1.0
    return deltas


def nearest_rank(values, p: float) -> float:
    """The ceil(p n)-th smallest of n values, p read as the decimal it prints as."""
    return sorted(values)[math.ceil(Fraction(repr(p)) * len(values)) - 1]


def _stats(deltas: np.ndarray, probes, trials: int):
    """(probe, mean, std) over trials of each probe's per-trial quantile."""
    for p in probes:
        q = [nearest_rank(row, p) for row in deltas]
        yield p, statistics.fmean(q), statistics.stdev(q) if trials > 1 else 0.0


def sweep_s(*, seed, n, d, k, t, trials, s_values, probes):
    """sweep-s rows.  Per family (dense batch 0, sparse batch 1) the cells are
    the graph construction at each s, then one Achlioptas cell, whose rows
    repeat at every s; rows go construction, family, s."""
    stats = {}
    for f, family in enumerate(FAMILIES):
        X = _inputs(seed, d, t, n, f, family)
        base = f * (len(s_values) + 1)
        for i, s in enumerate(s_values):
            stats["Sparse", family, s] = list(_stats(_cell(seed, base + i, "Sparse", s, k, X, trials), probes, trials))
        ach = list(_stats(_cell(seed, base + len(s_values), "Ach", 1, k, X, trials), probes, trials))
        for s in s_values:
            stats["Ach", family, s] = ach
    return [
        (c, family, s, *row, trials)
        for c in ("Sparse", "Ach")
        for family in FAMILIES
        for s in s_values
        for row in stats[c, family, s]
    ]


def sweep_t(*, seed, n, d, k, s, trials, t_values, probes):
    """sweep-t rows: sparse batch 2 + i at the i-th t; cells and rows go
    construction (graph, Achlioptas), then t."""
    inputs = [_inputs(seed, d, t, n, 2 + i, "sparse") for i, t in enumerate(t_values)]
    rows = []
    for ci, c in enumerate(("Sparse", "Ach")):
        for i, t in enumerate(t_values):
            deltas = _cell(seed, ci * len(t_values) + i, c, s, k, inputs[i], trials)
            rows += [(c, "sparse", t, *row, trials) for row in _stats(deltas, probes, trials)]
    return rows


def sweep_k(*, seed, n, d, s, t, trials, k_values, constructions, probes):
    """sweep-k rows of |delta|: dense batch 0 and sparse batch 1; cells and
    rows go construction, family, k."""
    inputs = [_inputs(seed, d, t, n, f, family) for f, family in enumerate(FAMILIES)]
    rows, cell = [], 0
    for c in constructions:
        for f, family in enumerate(FAMILIES):
            for k in k_values:
                deltas = np.abs(_cell(seed, cell, c, s, k, inputs[f], trials))
                rows += [(c, family, k, *row, trials) for row in _stats(deltas, probes, trials)]
                cell += 1
    return rows


def cdf_samples(*, seed, n, d, k, s, t, trials, constructions) -> dict[str, np.ndarray]:
    """Every delta of each construction on sparse batch 0; cell c is the c-th construction."""
    X = _inputs(seed, d, t, n, 0, "sparse")
    return {c: _cell(seed, ci, c, s, k, X, trials).ravel() for ci, c in enumerate(constructions)}


def cdf(samples: np.ndarray, g: float) -> float:
    """The share of samples at most g."""
    return np.count_nonzero(samples <= g) / samples.size


def exceedance(samples: np.ndarray, threshold: float) -> float:
    """The share of samples with |delta| above the threshold."""
    return np.count_nonzero(np.abs(samples) > threshold) / samples.size
