"""Tests for the experiment runners, aggregation, and CSV/manifest output."""

import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlproj import experiments
from jlproj.apply import distortion
from jlproj.constructions import sample_transform
from jlproj.core import AchlioptasSparse, GraphSparse, SeedSpec, sample_unit_sphere_batch
from jlproj.experiments import (
    ExperimentConfig,
    GridSpec,
    desk_scale_config,
    required_k,
    run_cdf,
    run_input_sparsity_sweep,
    run_k_sweep,
    run_sparsity_sweep,
    run_verification,
    write_cdf_csv,
    write_manifest,
    write_sweep_csv,
    write_tail_csv,
    _cell_deltas,
)
from jlproj.stats import hypergeometric_pmf, quantile

SMALL = dict(n=150, d=300, k=30, s=8, t=4, trials=4, master_seed=99)


def _small_cfg(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**SMALL, **overrides})


class TestConfig:
    def test_defaults_are_full_scale(self):
        cfg = ExperimentConfig()
        assert (cfg.n, cfg.d, cfg.k, cfg.s, cfg.t, cfg.trials) == (5000, 10000, 50, 16, 5, 30)
        assert cfg.probes == (0.5, 0.99)

    def test_desk_scale_helper(self):
        cfg = desk_scale_config(master_seed=3)
        assert (cfg.n, cfg.d, cfg.trials) == (500, 1000, 10)
        assert cfg.master_seed == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t=2000, d=1000),
            dict(trials=0),
            dict(probes=(0.0, 0.5)),
            dict(constructions=("Dense", "Nope")),
            dict(constructions=("Dense", "Dense")),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            desk_scale_config(**kwargs)

    @pytest.mark.parametrize("field", ["n", "d", "k"])
    def test_sizes_must_be_positive(self, field):
        with pytest.raises(ValueError, match=r"^n, d, k must be positive$"):
            desk_scale_config(**{field: 0})

    def test_s_must_be_positive(self):
        """s >= 1 is the config's only check on s; s <= k is checked per graph cell."""
        with pytest.raises(ValueError, match=r"^need s >= 1, got s=0$"):
            desk_scale_config(s=0)


class TestRequiredK:
    def test_worked_example(self):
        """12 (3 ln 2 + ln 2) / 0.25 = 133.08..., so 134."""
        assert required_k(2, 0.5) == 134

    def test_epsilon_near_one(self):
        assert required_k(2, 1.0 - 1e-12) == 34

    def test_survives_the_stated_budget(self):
        for n in (10, 5000):
            for eps in (0.1, 0.5, 0.9):
                k = required_k(n, eps)
                assert 2.0 * math.exp(-k * eps * eps / 12.0) <= n**-3
                assert 2.0 * math.exp(-(k - 1) * eps * eps / 12.0) > n**-3

    @given(
        n1=st.integers(2, 10_000),
        n2=st.integers(2, 10_000),
        e1=st.floats(0.05, 0.95),
        e2=st.floats(0.05, 0.95),
    )
    @settings(max_examples=100)
    def test_monotonicity(self, n1, n2, e1, e2):
        if n1 <= n2:
            assert required_k(n1, e1) <= required_k(n2, e1)
        if e1 <= e2:
            assert required_k(5, e1) >= required_k(5, e2)

    @pytest.mark.parametrize("n,eps", [(1, 0.5), (5, 0.0), (5, 1.0), (5, 1e-200), (5, 1e-160)])
    def test_domain(self, n, eps):
        with pytest.raises(ValueError):
            required_k(n, eps)


class TestGridSpec:
    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("field", ["lo", "hi", "tail_lo", "tail_hi"])
    def test_infinite_bound_rejected(self, field, value):
        with pytest.raises(ValueError, match=r"^grid and tail bounds must be finite, and so must hi - lo$"):
            GridSpec(**{field: value})

    def test_overflowing_span_rejected(self):
        """Finite bounds whose span overflows would give a nan grid."""
        with pytest.raises(ValueError, match=r"^grid and tail bounds must be finite, and so must hi - lo$"):
            GridSpec(lo=-1e308, hi=1e308)


class TestSparsitySweep:
    def test_structure_and_reference_series(self):
        cfg = _small_cfg()
        result = run_sparsity_sweep(cfg, [1, 2, 8])
        assert result.axis_name == "s"
        assert result.axis_values == (1, 2, 8)
        assert len(result.rows) == 2 * 2 * 3 * 2  # constructions x families x axis x probes
        constructions = {r.construction for r in result.rows}
        assert constructions == {"Sparse", "Ach"}
        ach = [r for r in result.rows if r.construction == "Ach" and r.input_family == "dense"]
        by_axis = {}
        for row in ach:
            by_axis.setdefault(row.axis_value, []).append((row.mean, row.std))
        reference = next(iter(by_axis.values()))
        assert all(stats == reference for stats in by_axis.values())

    def test_rejects_s_above_k(self):
        with pytest.raises(ValueError):
            run_sparsity_sweep(_small_cfg(), [31])

    def test_deterministic(self):
        cfg = _small_cfg(trials=1)
        assert run_sparsity_sweep(cfg, [2, 4]) == run_sparsity_sweep(cfg, [2, 4])

    def test_full_density_matches_achlioptas_abs_median(self):
        """At s=k with dense inputs the graph and Achlioptas series agree.

        Both are fully dense +-sign constructions there; pooled median
        absolute distortions must sit within 4 combined SEs.
        """
        d, k, n, instances = 400, 24, 300, 8
        vectors = sample_unit_sphere_batch(d, n, SeedSpec(31, 0))
        pooled = {}
        for base, (name, kind) in [(1000, ("Sparse", GraphSparse(k))), (2000, ("Ach", AchlioptasSparse()))]:
            values = []
            for i in range(instances):
                transform = sample_transform(kind, k, d, SeedSpec(31, base + i))
                values.extend(abs(distortion(transform, x)) for x in vectors)
            pooled[name] = np.array(values)
        medians = {name: quantile(vals, 0.5) for name, vals in pooled.items()}
        ses = {
            name: 1.2533 * vals.std(ddof=1) / math.sqrt(vals.size)
            for name, vals in pooled.items()
        }
        gap = abs(medians["Sparse"] - medians["Ach"])
        assert gap <= 4.0 * math.sqrt(ses["Sparse"] ** 2 + ses["Ach"] ** 2)


class TestInputSparsitySweep:
    def test_t_equal_one_is_exact(self):
        """Graph construction reproduces one column at t=1: all-zero rows."""
        result = run_input_sparsity_sweep(_small_cfg(), [1, 2])
        sparse_rows = [r for r in result.rows if r.construction == "Sparse"]
        for row in (r for r in sparse_rows if r.axis_value == 1):
            assert abs(row.mean) <= 1e-12
            assert row.std <= 1e-12

    @pytest.mark.parametrize("s,exact", [(1, True), (4, True), (16, True), (3, False), (6, False), (8, False)])
    def test_t_equal_one_is_zero_only_when_the_scale_is_exact(self, s, exact):
        """A t=1 graph delta is s * fl(1/sqrt(s))^2 - 1: exactly 0 when 1/sqrt(s)
        is a power of two, a few ulp otherwise.  Probes 0.01 and 0.999 of
        100 deltas are each trial's least and greatest."""
        result = run_input_sparsity_sweep(_small_cfg(n=100, k=30, s=s, probes=(0.01, 0.999)), [1])
        rows = [r for r in result.rows if r.construction == "Sparse"]
        assert len(rows) == 2
        for row in rows:
            if exact:
                assert row.mean == 0.0 and row.std == 0.0
            else:
                assert abs(row.mean) <= 1e-15 and row.std <= 1e-15

    def test_t_equal_two_has_positive_tail(self):
        result = run_input_sparsity_sweep(_small_cfg(trials=6), [2])
        p99 = [
            r
            for r in result.rows
            if r.construction == "Sparse" and r.axis_value == 2 and r.probe == 0.99
        ]
        assert p99[0].mean > 0.0

    def test_rejects_invalid_t(self):
        with pytest.raises(ValueError):
            run_input_sparsity_sweep(_small_cfg(), [0])
        with pytest.raises(ValueError):
            run_input_sparsity_sweep(_small_cfg(), [301])

    def test_row_structure(self):
        result = run_input_sparsity_sweep(_small_cfg(), [1, 4, 16])
        assert result.axis_name == "t"
        assert len(result.rows) == 2 * 3 * 2
        assert {r.input_family for r in result.rows} == {"sparse"}

    def test_workers_change_no_row(self):
        cfg = _small_cfg(trials=2)
        assert run_input_sparsity_sweep(cfg, [1, 4, 16], workers=2) == run_input_sparsity_sweep(cfg, [1, 4, 16])


class TestKSweep:
    def test_scaling_with_k(self):
        """Median |delta| halves when k quadruples (within 20%).

        s=16/t=5 keep collision counts of the graph series dense enough
        that its |delta| median is in the sqrt-variance scaling regime.
        """
        cfg = _small_cfg(n=300, d=400, s=16, t=5, trials=6)
        result = run_k_sweep(cfg, [50, 200])
        for construction in cfg.constructions:
            for family in ("dense", "sparse"):
                rows = {
                    r.axis_value: r.mean
                    for r in result.rows
                    if r.construction == construction
                    and r.input_family == family
                    and r.probe == 0.5
                }
                ratio = rows[50] / rows[200]
                assert 1.6 <= ratio <= 2.4, f"{construction}/{family}: ratio={ratio:.3f}"

    def test_sparse_inputs_have_lowest_sparse_series(self):
        """Graph construction on sparse inputs beats every series at each k."""
        cfg = _small_cfg(n=300, trials=6, t=3)
        result = run_k_sweep(cfg, [25, 100])
        for k in (25, 100):
            medians = {
                (r.construction, r.input_family): r.mean
                for r in result.rows
                if r.axis_value == k and r.probe == 0.5
            }
            winner = medians[("Sparse", "sparse")]
            assert winner == min(medians.values())

    def test_rejects_k_below_s(self):
        with pytest.raises(ValueError):
            run_k_sweep(_small_cfg(s=8), [4])

    def test_k_below_s_without_sparse(self):
        """The s lower bound binds only when the graph construction runs."""
        result = run_k_sweep(_small_cfg(s=8, constructions=("Dense", "Ach")), [4])
        assert result.axis_values == (4,)
        assert {r.construction for r in result.rows} == {"Dense", "Ach"}

    def test_deterministic(self):
        cfg = _small_cfg(trials=2)
        assert run_k_sweep(cfg, [30]) == run_k_sweep(cfg, [30])

    def test_workers_come_from_the_caller(self, monkeypatch):
        """Runners take their thread count as ``workers`` (default 1) and
        never read JL_THREADS; the count changes no result."""
        monkeypatch.setenv("JL_THREADS", "abc")
        cfg = _small_cfg(trials=2)
        assert run_k_sweep(cfg, [20, 30], workers=3) == run_k_sweep(cfg, [20, 30])


@pytest.mark.parametrize(
    "run,axis,batches",
    [
        (run_sparsity_sweep, [2, 4], 2),
        (run_input_sparsity_sweep, [1, 4, 16], 3),
        (run_k_sweep, [20, 30], 2),
        (run_cdf, None, 1),
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_one_input_batch_at_a_time(run, axis, batches, workers, monkeypatch):
    """Every input batch is drawn when its cells start and freed before the
    next one is drawn, and each is drawn once."""
    drawn = []

    def tracked(sampler):
        def draw(*args):
            assert all(ref() is None for ref in drawn), "an earlier batch is still held"
            batch = sampler(*args)
            drawn.append(weakref.ref(batch))
            return batch

        return draw

    for name in ("sample_unit_sphere_batch", "sample_sparse_unit_batch"):
        monkeypatch.setattr(experiments, name, tracked(getattr(experiments, name)))
    run(*([_small_cfg(trials=2)] if axis is None else [_small_cfg(trials=2), axis]), workers=workers)
    assert len(drawn) == batches


@pytest.mark.parametrize(
    "run,overrides,values",
    [
        (run_sparsity_sweep, dict(k=10, s=1), (1, 2, 4, 8)),
        (run_input_sparsity_sweep, dict(d=20), (1, 2, 5, 10)),
        (run_k_sweep, dict(s=30), (50, 100, 200, 400)),
        (run_k_sweep, dict(s=30, constructions=("Dense", "Ach")), (25, 50, 100, 200, 400)),
    ],
    ids=["s", "t", "k", "k-without-graph"],
)
def test_omitted_axis_runs_the_default_grid(run, overrides, values):
    """A runner called without its axis runs the CLI's default grid, cut to the axis's bounds."""
    cfg = ExperimentConfig(**{"n": 5, "d": 50, "trials": 1, **overrides})
    assert run(cfg).axis_values == values


class TestCdf:
    def test_reaches_one_at_grid_max(self):
        result = run_cdf(_small_cfg(), GridSpec(lo=-1.0, hi=2.0, points=31))
        for construction in result.constructions:
            assert result.cdf[construction][-1] == 1.0

    def test_dense_and_achlioptas_nearly_identical(self):
        """Kolmogorov-Smirnov distance between Dense and Ach below 0.05."""
        cfg = _small_cfg(n=400, trials=8, constructions=("Dense", "Ach"))
        result = run_cdf(cfg, GridSpec(points=401))
        ks = float(np.max(np.abs(result.cdf["Dense"] - result.cdf["Ach"])))
        assert ks < 0.05

    def test_small_s_crosses_large_s_in_abs_distortion(self):
        """Lower s: more mass at tiny |delta| but a heavier tail (CDFs cross)."""
        grid = np.linspace(0.0, 1.5, 301)
        cdfs = {}
        for s in (1, 16):
            cfg = _small_cfg(n=400, d=400, k=50, s=s, t=4, trials=8, constructions=("Sparse",))
            result = run_cdf(cfg)
            abs_samples = np.abs(result.samples["Sparse"])
            cdfs[s] = np.searchsorted(np.sort(abs_samples), grid, side="right") / abs_samples.size
        diff = cdfs[1] - cdfs[16]
        assert diff[1] > 0.0  # near zero, s=1 is exact more often
        assert np.min(diff) < 0.0  # but its tail is heavier
        first_positive = np.argmax(diff > 0)
        first_negative = np.argmax(diff < 0)
        assert first_positive < first_negative

    def test_tail_table_monotone(self):
        result = run_cdf(_small_cfg(), GridSpec())
        for construction in result.constructions:
            assert np.all(np.diff(result.tail[construction]) <= 0)

    def test_pooled_mean_centered(self):
        result = run_cdf(_small_cfg(trials=6), GridSpec())
        pooled = np.concatenate(list(result.samples.values()))
        se = pooled.std(ddof=1) / math.sqrt(pooled.size)
        assert abs(pooled.mean()) <= 4.0 * se


class TestTrialIndependence:
    def test_prefix_stability(self):
        """Adding trials never changes earlier trials' deltas."""
        cfg = _small_cfg()
        vectors = sample_unit_sphere_batch(cfg.d, 50, SeedSpec(cfg.master_seed, 1 << 60))
        d2 = _cell_deltas(_small_cfg(trials=2), 5, GraphSparse(4), cfg.k, vectors)
        d4 = _cell_deltas(_small_cfg(trials=4), 5, GraphSparse(4), cfg.k, vectors)
        assert d2.shape == (2, 50) and d4.shape == (4, 50)
        assert np.array_equal(d2, d4[:2])


class TestVerification:
    def test_all_checks_pass(self):
        checks = run_verification(master_seed=0, trials=300, pair_samples=20_000)
        names = [c.name for c in checks]
        assert len(names) == len(set(names))
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.detail}" for c in failed]

    @pytest.mark.parametrize("seed", [206, 342, 346, 377])
    def test_few_pairs_use_the_exact_test(self, seed):
        """With 3 pairs every expected count is below 5: all three pairs
        share one count, which Pearson's chi-squared rejects (15.0 > 13.8),
        has exact p = 1/216 + 1/216 = 1/108 >= 0.001."""
        spec = SeedSpec(seed, experiments._VERIFY_ROLE | 7 << 32)
        assert experiments._collision_distribution(3, spec) == (True, "exact p=0.009259 alpha=0.001")

    def test_verify_passes_with_three_pairs(self):
        checks = run_verification(master_seed=206, trials=1, pair_samples=3)
        assert [c.name for c in checks if not c.passed] == []

    def test_collision_variance_is_the_hypergeometric_law(self):
        """collision-mean's SE comes from Var of Hypergeometric(50, 16, 16)."""
        mu = 16 * 16 / 50
        law = sum((x - mu) ** 2 * hypergeometric_pmf(50, 16, 16, x) for x in range(17))
        assert experiments._collision_variance(50, 16) == pytest.approx(law, rel=1e-12)
        assert experiments._collision_variance(50, 16) == pytest.approx(2.41580, abs=1e-5)


class TestWriters:
    def test_sweep_csv_layout(self, tmp_path):
        result = run_sparsity_sweep(_small_cfg(trials=2, n=60), [2, 4])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "construction,input_family,s,probe,mean,std,trials"
        assert len(lines) == 1 + len(result.rows)
        first = lines[1].split(",")
        assert first[0] in {"Sparse", "Ach"}
        assert float(first[4]) == result.rows[0].mean  # repr round-trips exactly

    def test_cdf_and_tail_csv_layout(self, tmp_path):
        result = run_cdf(_small_cfg(trials=2, n=60), GridSpec(points=5, tail_points=3))
        cdf_path = tmp_path / "cdf.csv"
        tail_path = tmp_path / "cdf.tail.csv"
        write_cdf_csv(result, cdf_path)
        write_tail_csv(result, tail_path)
        cdf_lines = cdf_path.read_text().splitlines()
        assert cdf_lines[0] == "construction,grid,cdf"
        assert len(cdf_lines) == 1 + 3 * 5
        tail_lines = tail_path.read_text().splitlines()
        assert tail_lines[0] == "construction,threshold,exceedance"
        assert len(tail_lines) == 1 + 3 * 3

    def test_manifest_contents(self, tmp_path):
        cfg = _small_cfg()
        path = tmp_path / "run.manifest.json"
        write_manifest(path, cfg, "2026-01-01T00:00:00+00:00", {"axis": {"name": "s", "values": [1]}})
        manifest = json.loads(path.read_text())
        assert manifest["seed"] == cfg.master_seed
        assert manifest["config"]["n"] == cfg.n
        assert manifest["version"]
        assert manifest["started_at"].startswith("2026")
        assert manifest["axis"] == {"name": "s", "values": [1]}
