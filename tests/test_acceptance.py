"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Desk-scale sizes (n=500, d=1000, trials=10) keep the full run under a few
minutes; every tolerance is pinned here, not tuned at runtime.  Statistical
criteria use the suite-wide 4-standard-error convention.
"""

import math

import numpy as np
import pytest

from jlproj.apply import WorkCounter, apply, distortion
from jlproj.cli import cli_main
from jlproj.constructions import sample_transform
from jlproj.core import (
    AchlioptasSparse,
    DenseGaussian,
    GraphSparse,
    InputBatch,
    Rademacher,
    SeedSpec,
    sample_sparse_unit_batch,
    sample_unit_sphere_batch,
)
from jlproj.experiments import desk_scale_config, run_input_sparsity_sweep, run_k_sweep
from jlproj.stats import (
    chi_square_gof,
    fourth_moment_check,
    gaussian_variance_check,
    sample_collision_counts,
    tail_bound_report,
)

D = 1000  # desk-scale ambient dimension


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_exact_zero_distortion_at_t1():
    """One-hot inputs through the graph construction distort by exactly 0."""
    layout = sample_transform(GraphSparse(16), 50, D, SeedSpec(101, 0))
    worst = 0.0
    for i in range(1000):
        x = InputBatch(dim=D, values=np.array([[1.0]]), indices=np.array([[i]]))
        worst = max(worst, abs(distortion(layout, x)))
    _report(1, "zero distortion for one-hot inputs", worst <= 1e-12, f"max|delta|={worst:.3g}")


def test_criterion_02_column_sparsity_exhaustive():
    """Every column of every sampled layout has exactly s distinct rows."""
    violations = 0
    for i in range(10):
        layout = sample_transform(GraphSparse(16), 50, D, SeedSpec(102, i))
        ok_shape = layout.rows.shape == (D, 16)
        ok_distinct = bool(np.all(np.diff(layout.rows, axis=1) > 0))
        ok_range = bool(np.all((layout.rows >= 0) & (layout.rows < 50)))
        ok_signs = bool(np.all(np.abs(layout.signs) == 1.0))
        if not (ok_shape and ok_distinct and ok_range and ok_signs):
            violations += 1
    _report(2, "column sparsity invariant (10 transforms)", violations == 0,
            f"violations={violations}")


def test_criterion_03_unbiasedness_all_constructions():
    """Pooled mean delta over 10 instances x 1000 sphere vectors within 4 SE of 0."""
    vectors = sample_unit_sphere_batch(D, 1000, SeedSpec(103, 0))
    details = []
    ok = True
    kinds = [DenseGaussian(), Rademacher(), AchlioptasSparse(), GraphSparse(16)]
    for base, kind in enumerate(kinds):
        deltas = []
        for i in range(10):
            transform = sample_transform(kind, 50, D, SeedSpec(103, 1 + base * 16 + i))
            deltas.extend(distortion(transform, x) for x in vectors)
        deltas = np.array(deltas)
        se = deltas.std(ddof=1) / math.sqrt(deltas.size)
        details.append(f"{type(kind).__name__}: mean={deltas.mean():.2e} 4se={4 * se:.2e}")
        ok = ok and abs(deltas.mean()) <= 4.0 * se
    _report(3, "unbiasedness per construction", ok, "; ".join(details))


def test_criterion_04_gaussian_chi_squared_variance():
    """Sample variance of |Rv|^2 at k=50 within 15% of 2/k over 1e4 samples."""
    report = gaussian_variance_check(50, 100, 10_000, SeedSpec(104, 0))
    rel = abs(report.sample_variance - report.expected_variance) / report.expected_variance
    _report(4, "gaussian squared-norm variance", rel <= 0.15,
            f"sample={report.sample_variance:.5f} expected={report.expected_variance} rel={rel:.3f}")


def test_criterion_05_fourth_moment_bound():
    """Discrete families <= 3 + 4 SE on the all-equal vector; Gaussian at 3."""
    ok = True
    details = []
    for stream, kind in enumerate([Rademacher(), AchlioptasSparse()]):
        r = fourth_moment_check(kind, D, 10_000, SeedSpec(105, stream))
        ok = ok and r.estimate <= 3.0 + 4.0 * r.std_error
        details.append(f"{type(kind).__name__}: {r.estimate:.4f} (se {r.std_error:.4f})")
    r = fourth_moment_check(DenseGaussian(), D, 10_000, SeedSpec(105, 2))
    ok = ok and abs(r.estimate - 3.0) <= 4.0 * r.std_error
    details.append(f"DenseGaussian: {r.estimate:.4f} (se {r.std_error:.4f})")
    _report(5, "fourth-moment bound", ok, "; ".join(details))


def test_criterion_06_collision_statistics():
    """k=4,s=2 counts fit {1/6, 2/3, 1/6} at alpha=0.001; k=50,s=16 mean near 5.12."""
    small = sample_collision_counts(4, 2, 100_000, SeedSpec(106, 0))
    observed = np.bincount(small, minlength=3)
    statistic, critical, fit_ok = chi_square_gof(observed, [1 / 6, 2 / 3, 1 / 6])

    counts = sample_collision_counts(50, 16, 10_000, SeedSpec(106, 1))
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    mean_ok = abs(counts.mean() - 5.12) <= 4.0 * se

    _report(6, "collision statistics", fit_ok and mean_ok,
            f"chi2={statistic:.2f} (crit {critical:.2f}); mean={counts.mean():.3f} vs 5.12")


def test_criterion_07_tail_bounds():
    """Empirical failure rates stay within bound + 4 binomial SE over 1e4 trials."""
    ok = True
    details = []
    cases = [
        (Rademacher(), 200),
        (AchlioptasSparse(), 200),
        (DenseGaussian(), 50),
    ]
    for stream, (kind, k) in enumerate(cases):
        r = tail_bound_report(kind, k, D, 0.5, 10_000, SeedSpec(107, stream << 32))
        slack = 4.0 * math.sqrt(r.bound * (1.0 - r.bound) / r.n)
        ok = ok and r.empirical_failure_rate <= r.bound + slack
        details.append(f"{type(kind).__name__}(k={k}): rate={r.empirical_failure_rate:.4f} "
                       f"bound={r.bound:.4f}")
    _report(7, "norm-deviation tail bounds", ok, "; ".join(details))


def test_criterion_08_sparse_converges_to_achlioptas():
    """At t=d the graph and Achlioptas series agree within 4 SE per probe."""
    cfg = desk_scale_config(master_seed=108)
    result = run_input_sparsity_sweep(cfg, [cfg.d])
    ok = True
    details = []
    for probe in cfg.probes:
        stats = {
            r.construction: (r.mean, r.std / math.sqrt(r.trials))
            for r in result.rows
            if r.probe == probe
        }
        gap = abs(stats["Sparse"][0] - stats["Ach"][0])
        limit = 4.0 * math.sqrt(stats["Sparse"][1] ** 2 + stats["Ach"][1] ** 2)
        ok = ok and gap < limit
        details.append(f"p{probe}: gap={gap:.4f} limit={limit:.4f}")
    _report(8, "convergence to Achlioptas at t=d", ok, "; ".join(details))


def test_criterion_09_k_scaling():
    """Median |delta| ratio between k=50 and k=200 within 20% of 2."""
    cfg = desk_scale_config(master_seed=109)
    result = run_k_sweep(cfg, [50, 200])
    ok = True
    details = []
    for construction in cfg.constructions:
        for family in ("dense", "sparse"):
            medians = {
                r.axis_value: r.mean
                for r in result.rows
                if r.construction == construction and r.input_family == family and r.probe == 0.5
            }
            ratio = medians[50] / medians[200]
            ok = ok and 1.6 <= ratio <= 2.4
            details.append(f"{construction}/{family}: {ratio:.2f}")
    _report(9, "k-scaling of median |delta|", ok, "; ".join(details))


def test_criterion_10_determinism_across_threads(tmp_path, monkeypatch):
    """Identical flags give byte-identical CSV under 1 and 8 threads."""
    args = ["sweep-s", "--n", "120", "--d", "300", "--k", "20", "--s", "1,2,4",
            "--t", "3", "--trials", "3", "--seed", "11"]
    outputs = []
    for threads, name in [("1", "a.csv"), ("8", "b.csv"), ("1", "c.csv")]:
        monkeypatch.setenv("JL_THREADS", threads)
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(10, "thread-count determinism", ok, f"bytes={len(outputs[0])}")


def test_criterion_11_sparse_fast_path_work_bound():
    """The graph fast path touches exactly t*s = 80 entries per vector."""
    layout = sample_transform(GraphSparse(16), 50, D, SeedSpec(111, 0))
    vectors = sample_sparse_unit_batch(D, 5, 50, SeedSpec(111, 1))
    ok = True
    for x in vectors:
        counter = WorkCounter()
        apply(layout, x, counter)
        ok = ok and counter.entries_touched == 80
    _report(11, "sparse fast-path work bound", ok, "80 entries per vector")
