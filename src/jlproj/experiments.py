"""End-to-end distortion experiments: sweeps, CDF tables, verification, CSV.

An experiment draws its input vectors once (shared by every construction
and trial), then measures distortion quantiles per transform instance and
aggregates mean/std across instances.  All randomness comes from streams
derived off the config's master seed:

    vector batch b     -> stream VECTOR_ROLE  | b
    cell c, trial i    -> stream TRANSFORM_ROLE | c << 32 | i
    verify table row r -> stream VERIFY_ROLE | r << 32 (+ offsets inside)

Cells (construction x input family x axis value) are enumerated in a fixed
order and may execute on a pool of ``workers`` threads; aggregation happens
in cell order, so output bytes never depend on the schedule.  Each input
batch is drawn when the cells that share it start and is dropped when they
end, so a run holds one input batch at a time.  The runners take
``workers`` from their caller (default 1) and do not read the JL_THREADS
environment variable: only the CLI does, once, so a library call runs one
thread unless it passes ``workers``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ._version import __version__
from .apply import distortion_batch
from .constructions import check_transform_budget, sample_transform
from .core import (
    AchlioptasSparse,
    ConstructionKind,
    DenseGaussian,
    GraphSparse,
    InputBatch,
    Rademacher,
    SeedSpec,
    check_entry_budget,
    sample_sparse_unit_batch,
    sample_unit_sphere_batch,
)
from .stats import (
    chi_square_gof,
    collision_tail_check,
    empirical_cdf,
    fourth_moment_check,
    gaussian_variance_check,
    hypergeometric_pmf,
    quantile,
    sample_collision_counts,
    tail_bound_report,
)

_VECTOR_ROLE = 1 << 60
_TRANSFORM_ROLE = 2 << 60
_VERIFY_ROLE = 3 << 60

SERIES_KINDS = ("Dense", "Ach", "Sparse")

# Paper-scale experiment setup; CI-friendly desk scale is n=500, d=1000,
# trials=10 (see desk_scale_config / the CLI --paper-scale flag).
PAPER_SCALE = {"n": 5000, "d": 10000, "trials": 30}
DESK_SCALE = {"n": 500, "d": 1000, "trials": 10}

DEFAULT_S_GRID = (1, 2, 4, 8, 16, 32)
DEFAULT_T_GRID = (1, 2, 5, 10, 50, 100, 1000)
DEFAULT_K_GRID = (25, 50, 100, 200, 400)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full determinism contract for one experiment run."""

    n: int = 5000
    d: int = 10000
    k: int = 50
    s: int = 16
    t: int = 5
    trials: int = 30
    master_seed: int = 0
    constructions: tuple[str, ...] = SERIES_KINDS
    probes: tuple[float, ...] = (0.5, 0.99)

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1 or self.k < 1:
            raise ValueError("n, d, k must be positive")
        if not 1 <= self.s <= self.k:
            raise ValueError(f"need 1 <= s <= k, got s={self.s}, k={self.k}")
        if not 1 <= self.t <= self.d:
            raise ValueError(f"need 1 <= t <= d, got t={self.t}, d={self.d}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = [c for c in self.constructions if c not in SERIES_KINDS]
        if unknown:
            raise ValueError(f"unknown constructions: {unknown}")
        if len(set(self.constructions)) != len(self.constructions):
            raise ValueError("constructions must not repeat")
        if not self.probes:
            raise ValueError("probes must list at least one quantile")
        if len(set(self.probes)) != len(self.probes):
            raise ValueError("probes must not repeat")
        if not all(0.0 < p < 1.0 for p in self.probes):
            raise ValueError("probes must lie in (0, 1)")


def desk_scale_config(**overrides) -> ExperimentConfig:
    """Config with CI-friendly sizes; overrides win."""
    merged = {**DESK_SCALE, **overrides}
    return ExperimentConfig(**merged)


@dataclass(frozen=True)
class GridSpec:
    """CDF evaluation grid plus log-spaced |delta| tail thresholds; the
    bounds (and the grid's span) must be finite and both point counts are
    held to the entry budget when the spec is built."""

    lo: float = -1.0
    hi: float = 1.0
    points: int = 201
    tail_lo: float = 1e-4
    tail_hi: float = 1.0
    tail_points: int = 17

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.lo, self.hi, self.hi - self.lo, self.tail_lo, self.tail_hi))):
            raise ValueError("grid and tail bounds must be finite, and so must hi - lo")
        if not self.lo < self.hi or self.points < 2:
            raise ValueError("grid needs lo < hi and at least 2 points")
        if not 0.0 < self.tail_lo < self.tail_hi or self.tail_points < 2:
            raise ValueError("tail thresholds need 0 < tail_lo < tail_hi and >= 2 points")
        check_entry_budget("CDF grid", 1, self.points)
        check_entry_budget("tail grid", 1, self.tail_points)

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def tail_thresholds(self) -> np.ndarray:
        return np.logspace(math.log10(self.tail_lo), math.log10(self.tail_hi), self.tail_points)


@dataclass(frozen=True)
class SweepRow:
    construction: str
    input_family: str
    axis_value: int
    probe: float
    mean: float
    std: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    """Per-(construction, family, axis, probe) quantile statistics across trials."""

    axis_name: str
    axis_values: tuple[int, ...]
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class CdfResult:
    """Pooled distortion CDFs per construction plus a |delta| tail table."""

    grid: np.ndarray
    constructions: tuple[str, ...]
    cdf: dict[str, np.ndarray]
    tail_thresholds: np.ndarray
    tail: dict[str, np.ndarray]
    samples: dict[str, np.ndarray]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _series_kind(name: str, s: int) -> ConstructionKind:
    return {"Dense": DenseGaussian(), "Ach": AchlioptasSparse(), "Sparse": GraphSparse(s)}[name]


def _cell_deltas(
    cfg: ExperimentConfig, cell_index: int, kind: ConstructionKind, k: int, vectors: InputBatch
) -> np.ndarray:
    """(trials, n) deltas of one cell; trial i projects with a fresh transform
    drawn from stream TRANSFORM_ROLE | cell_index << 32 | i."""
    deltas = np.empty((cfg.trials, len(vectors)))
    for trial in range(cfg.trials):
        spec = SeedSpec(cfg.master_seed, _TRANSFORM_ROLE | (cell_index << 32) | trial)
        deltas[trial] = distortion_batch(sample_transform(kind, k, cfg.d, spec), vectors)
    return deltas


def _run_cells(cfg: ExperimentConfig, cells, draws, workers: int) -> list[np.ndarray]:
    """Delta block of each (kind, k, batch key) cell; a cell's position is its seed.

    ``draws`` maps each batch key to a function that draws that input
    batch.  Batches are drawn in the order of ``draws``, each when its
    cells start, and dropped when they end, so one input batch is held at
    a time; a batch's cells run on a pool of ``workers`` threads.  The
    budgets of the delta block and of every cell's transform are checked
    before any batch is drawn.
    """
    check_entry_budget("delta block", cfg.trials, cfg.n)
    for kind, k, _ in cells:
        check_transform_budget(kind, k, cfg.d)
    blocks = [None] * len(cells)
    for key, draw in draws.items():
        batch_cells = [(ci, kind, k) for ci, (kind, k, batch) in enumerate(cells) if batch == key]
        # The batch is only an argument, so it is freed when the call returns.
        for (ci, _, _), block in zip(batch_cells, _run_batch(cfg, draw(), batch_cells, workers)):
            blocks[ci] = block
    return blocks


def _run_batch(cfg: ExperimentConfig, vectors: InputBatch, cells, workers: int) -> list[np.ndarray]:
    """Delta block of each (position, kind, k) cell on one input batch."""
    jobs = [partial(_cell_deltas, cfg, ci, kind, k, vectors) for ci, kind, k in cells]
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [future.result() for future in futures]


def _sweep(
    cfg: ExperimentConfig, axis_name: str, axis_values, cells, draws, workers: int, use_abs=False, order=None
) -> SweepResult:
    """Run (construction, family, axis value, kind, k, batch key) cells and reduce them to rows.

    Quantiles are taken per trial (of |delta| when ``use_abs``), then
    averaged over trials.  ``order`` lists the (cell position, axis value)
    of each row group; by default every cell once, in cell order.
    """
    blocks = _run_cells(cfg, [cell[3:] for cell in cells], draws, workers)
    quantiles = [
        np.array([[quantile(deltas, p) for p in cfg.probes] for deltas in (np.abs(b) if use_abs else b)])
        for b in blocks
    ]
    if order is None:
        order = [(ci, cell[2]) for ci, cell in enumerate(cells)]
    rows = []
    for ci, axis_value in order:
        for pi, probe in enumerate(cfg.probes):
            col = quantiles[ci][:, pi]
            std = float(col.std(ddof=1)) if cfg.trials > 1 else 0.0
            rows.append(SweepRow(*cells[ci][:2], axis_value, probe, float(col.mean()), std, cfg.trials))
    return SweepResult(axis_name, tuple(axis_values), tuple(rows))


def _axis(name: str, values, lo: int, hi: float) -> tuple[int, ...]:
    """The swept values as ints, each in [lo, hi]; an empty axis or a
    repeated value is rejected before any draw."""
    values = tuple(int(v) for v in values)
    if not values:
        raise ValueError(f"the {name} axis needs at least one value")
    if len(set(values)) != len(values):
        raise ValueError(f"the {name} axis must not repeat a value")
    for v in values:
        if not lo <= v <= hi:
            raise ValueError(f"sweep value {name}={v} must satisfy {lo} <= {name} <= {hi}")
    return values


def _families(cfg: ExperimentConfig) -> dict:
    """Draws of the dense and the sparse input batch, by family."""
    return {
        "dense": partial(sample_unit_sphere_batch, cfg.d, cfg.n, SeedSpec(cfg.master_seed, _VECTOR_ROLE | 0)),
        "sparse": partial(sample_sparse_unit_batch, cfg.d, cfg.t, cfg.n, SeedSpec(cfg.master_seed, _VECTOR_ROLE | 1)),
    }


def run_sparsity_sweep(cfg: ExperimentConfig, s_values, workers: int = 1) -> SweepResult:
    """Distortion quantiles of the graph construction vs its column sparsity.

    Runs both input families with the Achlioptas series as the reference at
    every axis point (its statistics do not depend on s, so its cell is
    computed once per family and replicated).
    """
    s_values = _axis("s", s_values, 1, cfg.k)
    draws = _families(cfg)
    cells = []
    for family in draws:
        cells += [("Sparse", family, s, GraphSparse(s), cfg.k, family) for s in s_values]
        cells.append(("Ach", family, None, AchlioptasSparse(), cfg.k, family))
    position = {cell[:3]: ci for ci, cell in enumerate(cells)}
    order = [
        (position[construction, family, s if construction == "Sparse" else None], s)
        for construction in ("Sparse", "Ach")
        for family in ("dense", "sparse")
        for s in s_values
    ]
    return _sweep(cfg, "s", s_values, cells, draws, workers, order=order)


def run_input_sparsity_sweep(cfg: ExperimentConfig, t_values, workers: int = 1) -> SweepResult:
    """Distortion quantiles vs input support size, graph construction at fixed s.

    Input vectors are redrawn per axis point (the axis changes the inputs);
    at t=1 the graph construction reproduces one column exactly, so its
    distortion rows are identically zero.
    """
    t_values = _axis("t", t_values, 1, cfg.d)
    check_entry_budget("sparse input block", cfg.n, max(t_values))  # every batch, before any is drawn
    draws = {
        t: partial(sample_sparse_unit_batch, cfg.d, t, cfg.n, SeedSpec(cfg.master_seed, _VECTOR_ROLE | (2 + ti)))
        for ti, t in enumerate(t_values)
    }
    cells = [
        (construction, "sparse", t, _series_kind(construction, cfg.s), cfg.k, t)
        for construction in ("Sparse", "Ach")
        for t in t_values
    ]
    return _sweep(cfg, "t", t_values, cells, draws, workers)


def run_k_sweep(cfg: ExperimentConfig, k_values, workers: int = 1) -> SweepResult:
    """|delta| quantiles vs target dimension for every configured construction."""
    k_values = _axis("k", k_values, cfg.s if "Sparse" in cfg.constructions else 1, math.inf)
    draws = _families(cfg)
    cells = [
        (construction, family, k, _series_kind(construction, cfg.s), k, family)
        for construction in cfg.constructions
        for family in draws
        for k in k_values
    ]
    return _sweep(cfg, "k", k_values, cells, draws, workers, use_abs=True)


def run_cdf(cfg: ExperimentConfig, grid_spec: GridSpec = GridSpec(), workers: int = 1) -> CdfResult:
    """Pooled distortion CDF per construction on sparse inputs (t = cfg.t)."""
    draw = partial(sample_sparse_unit_batch, cfg.d, cfg.t, cfg.n, SeedSpec(cfg.master_seed, _VECTOR_ROLE | 0))
    blocks = _run_cells(cfg, [(_series_kind(c, cfg.s), cfg.k, 0) for c in cfg.constructions], {0: draw}, workers)
    samples = {c: block.ravel() for c, block in zip(cfg.constructions, blocks)}
    grid = grid_spec.grid()
    thresholds = grid_spec.tail_thresholds()
    return CdfResult(
        grid=grid,
        constructions=tuple(cfg.constructions),
        cdf={c: empirical_cdf(deltas, grid) for c, deltas in samples.items()},
        tail_thresholds=thresholds,
        tail={c: np.array([np.mean(np.abs(deltas) > thr) for thr in thresholds]) for c, deltas in samples.items()},
        samples=samples,
    )


def required_k(n: int, epsilon: float) -> int:
    """Smallest k with 2 exp(-k eps^2 / 12) <= n^-3: ceil(12 (3 ln n + ln 2) / eps^2).

    This is the single-vector failure budget 1/n^3 that survives the union
    bound over all points and pairs with overall success >= 1 - 1/n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    sq = epsilon * epsilon
    k = 12.0 * (3.0 * math.log(n) + math.log(2.0)) / sq if sq else math.inf
    if not math.isfinite(k):
        raise ValueError(f"epsilon={epsilon} is too small: the required k overflows a float")
    return math.ceil(k)


# ---------------------------------------------------------------------------
# Verification suite (surfaced by the `verify` CLI subcommand)
# ---------------------------------------------------------------------------

# Each check takes its SeedSpec and returns (passed, detail).  They look the
# stats functions up by their names in this module when they run, because
# perfbench/spans.py traces them there.


def _tail(kind: ConstructionKind, k: int, trials: int, seed: SeedSpec) -> tuple[bool, str]:
    report = tail_bound_report(kind, k, 500, 0.5, trials, seed)
    slack = 4.0 * math.sqrt(report.bound * (1.0 - report.bound) / trials)
    rate = report.empirical_failure_rate
    return rate <= report.bound + slack, f"rate={rate:.6g} bound={report.bound:.6g} n={trials}"


def _fourth_moment(kind: ConstructionKind, trials: int, seed: SeedSpec) -> tuple[bool, str]:
    """The Gaussian moment is exactly 3; the discrete ones sit at or below it."""
    report = fourth_moment_check(kind, 500, trials, seed)
    est, se = report.estimate, report.std_error
    ok = abs(est - 3.0) <= 4.0 * se if isinstance(kind, DenseGaussian) else est <= 3.0 + 4.0 * se
    return ok, f"estimate={est:.6g} se={se:.3g}"


def _collision_variance(k: int, s: int) -> float:
    """Var of Hypergeometric(k, s, s), the per-pair collision law: s (s/k) ((k-s)/k) ((k-s)/(k-1))."""
    return s * (s / k) * ((k - s) / k) * ((k - s) / (k - 1))


def _collision_mean(pairs: int, seed: SeedSpec) -> tuple[bool, str]:
    """The SE is the law's, not the sample's: a sample SE is 0 when every pair's count is equal."""
    mean = sample_collision_counts(50, 16, pairs, seed).mean()
    expected = 16 * 16 / 50
    se = math.sqrt(_collision_variance(50, 16) / pairs)
    return abs(mean - expected) <= 4.0 * se, f"mean={mean:.4f} expected={expected} se={se:.3g}"


def _collision_distribution(pairs: int, seed: SeedSpec) -> tuple[bool, str]:
    observed = np.bincount(sample_collision_counts(4, 2, pairs, seed), minlength=3)
    statistic, critical, ok = chi_square_gof(observed, [1 / 6, 2 / 3, 1 / 6])
    return ok, f"chi2={statistic:.3f} critical={critical:.3f}"


def _collision_tail(pairs: int, seed: SeedSpec) -> tuple[bool, str]:
    report = collision_tail_check(50, 16, pairs, seed)
    se = math.sqrt(report.exact_tail * (1.0 - report.exact_tail) / pairs)
    ok = abs(report.empirical_exceedance - report.exact_tail) <= 4.0 * se
    return ok, f"empirical={report.empirical_exceedance:.6g} exact={report.exact_tail:.6g}"


def _gaussian_variance(trials: int, seed: SeedSpec) -> tuple[bool, str]:
    report = gaussian_variance_check(50, 200, trials, seed)
    sample, expected = report.sample_variance, report.expected_variance
    return abs(sample - expected) / expected <= 0.15, f"sample={sample:.6g} expected={expected:.6g}"


def _hypergeometric_normalization(seed: SeedSpec) -> tuple[bool, str]:
    """Draws nothing: the Hypergeometric(500, 37, 37) pmf sums to 1, with mean 37^2/500."""
    total = sum(hypergeometric_pmf(500, 37, 37, x) for x in range(38))
    mean = sum(x * hypergeometric_pmf(500, 37, 37, x) for x in range(38))
    return abs(total - 1.0) <= 1e-12 and abs(mean - 37 * 37 / 500) <= 1e-10, f"sum={total!r} mean={mean!r}"


def run_verification(master_seed: int = 0, trials: int = 2000, pair_samples: int = 100_000) -> list[CheckResult]:
    """Empirical bound checks for all constructions, run as one table in
    order; check i draws from stream VERIFY_ROLE | i << 32 of ``master_seed``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if pair_samples < 2:
        raise ValueError(f"pair_samples must be >= 2, got {pair_samples}")
    moment_trials = max(trials, 4000)
    table = [
        ("gaussian-tail", partial(_tail, DenseGaussian(), 50, trials)),
        ("rademacher-tail", partial(_tail, Rademacher(), 200, trials)),
        ("achlioptas-tail", partial(_tail, AchlioptasSparse(), 200, trials)),
        ("gaussian-fourth-moment", partial(_fourth_moment, DenseGaussian(), moment_trials)),
        ("rademacher-fourth-moment", partial(_fourth_moment, Rademacher(), moment_trials)),
        ("achlioptas-fourth-moment", partial(_fourth_moment, AchlioptasSparse(), moment_trials)),
        ("collision-mean", partial(_collision_mean, pair_samples)),
        ("collision-distribution", partial(_collision_distribution, pair_samples)),
        ("collision-tail", partial(_collision_tail, pair_samples)),
        ("gaussian-variance", partial(_gaussian_variance, moment_trials)),
        ("hypergeometric-normalization", _hypergeometric_normalization),
    ]
    checks = []
    for row, (name, check) in enumerate(table):
        passed, detail = check(SeedSpec(master_seed, _VERIFY_ROLE | row << 32))
        checks.append(CheckResult(name, bool(passed), detail))
    return checks


# ---------------------------------------------------------------------------
# CSV / manifest output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: a temp file in the same
    directory, then a rename, so a failed write leaves no partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    """Sweep rows as CSV; the axis column is named after the swept parameter."""
    lines = [f"construction,input_family,{result.axis_name},probe,mean,std,trials"]
    for r in result.rows:
        lines.append(
            f"{r.construction},{r.input_family},{r.axis_value},"
            f"{_fmt(r.probe)},{_fmt(r.mean)},{_fmt(r.std)},{r.trials}"
        )
    _write_text(path, "\n".join(lines) + "\n")


def _write_curves(path: str | Path, header: str, result: CdfResult, xs, ys) -> None:
    """One (construction, x, y) line per point of each construction's curve."""
    lines = [header] + [f"{c},{_fmt(x)},{_fmt(y)}" for c in result.constructions for x, y in zip(xs, ys[c])]
    _write_text(path, "\n".join(lines) + "\n")


def write_cdf_csv(result: CdfResult, path: str | Path) -> None:
    _write_curves(path, "construction,grid,cdf", result, result.grid, result.cdf)


def write_tail_csv(result: CdfResult, path: str | Path) -> None:
    _write_curves(path, "construction,threshold,exceedance", result, result.tail_thresholds, result.tail)


def write_manifest(path: str | Path, cfg: ExperimentConfig, started_at: str, extra: dict | None = None) -> None:
    manifest = {
        "config": dataclasses.asdict(cfg),
        "seed": cfg.master_seed,
        "version": __version__,
        "started_at": started_at,
    }
    if extra:
        manifest.update(extra)
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
