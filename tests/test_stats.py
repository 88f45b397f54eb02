"""Tests for quantiles, CDFs, collision statistics, and the bound checkers."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

from jlproj.apply import distortion
from jlproj.core import (
    AchlioptasSparse,
    DenseGaussian,
    GraphSparse,
    InputBatch,
    Rademacher,
    SeedSpec,
    sample_unit_sphere,
)
from jlproj.stats import (
    GOF_ALPHA,
    chi_square_gof,
    collision_tail_check,
    empirical_cdf,
    fourth_moment_check,
    gaussian_variance_check,
    hypergeometric_pmf,
    multinomial_exact_test,
    quantile,
    sample_collision_counts,
    tail_bound_report,
)
from jlproj.constructions import sample_transform
from jlproj import core


class TestQuantile:
    def test_median_of_three(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_singleton(self):
        for p in (0.01, 0.5, 0.99):
            assert quantile([5.0], p) == 5.0

    def test_p99_of_one_to_hundred(self):
        """ceil(0.99 * 100) - 1 = 98, so the 99th sorted value."""
        assert quantile(list(range(1, 101)), 0.99) == 99.0

    def test_rank_never_shifted_by_float_rounding(self):
        for n in (10, 100, 1000):
            for num in range(1, 10):
                p = num / 10
                if not 0 < p < 1:
                    continue
                expected_rank = math.ceil(Fraction(num, 10) * n)
                assert quantile(list(range(1, n + 1)), p) == float(expected_rank)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_probe_domain(self, p):
        with pytest.raises(ValueError):
            quantile([1.0], p)

    @given(
        samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
        p1=st.floats(0.01, 0.99),
        p2=st.floats(0.01, 0.99),
    )
    @settings(max_examples=100)
    def test_monotone_in_probe(self, samples, p1, p2):
        lo, hi = sorted((p1, p2))
        assert quantile(samples, lo) <= quantile(samples, hi)

    @given(
        samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
        p=st.floats(0.01, 0.99),
    )
    @settings(max_examples=100)
    def test_nearest_rank_property(self, samples, p):
        """q is a sample value with at least ceil(p n) samples <= q, minimally so."""
        q = quantile(samples, p)
        arr = np.asarray(samples)
        rank = math.ceil(Fraction(repr(p)) * arr.size)
        assert q in arr
        assert np.sum(arr <= q) >= rank
        assert np.sum(arr < q) <= rank - 1

    @given(samples=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_summary_values_non_decreasing(self, samples):
        values = [quantile(samples, p) for p in (0.1, 0.5, 0.9, 0.99)]
        assert values == sorted(values)


class TestEmpiricalCdf:
    def test_point_mass(self):
        assert list(empirical_cdf([0.0], [-1.0, 0.0, 1.0])) == [0.0, 1.0, 1.0]

    def test_below_minimum_is_zero(self):
        assert empirical_cdf([3.0, 4.0, 5.0], [2.9])[0] == 0.0

    def test_normal_median(self):
        """1e4 standard normals: CDF at 0 within 4 * 0.5/sqrt(n) of 1/2."""
        rng = np.random.default_rng(123)
        samples = rng.standard_normal(10_000)
        value = empirical_cdf(samples, [0.0])[0]
        assert abs(value - 0.5) <= 4.0 * 0.5 / math.sqrt(10_000)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match=r"^grid must be sorted ascending$"):
            empirical_cdf([1.0], [1.0, 0.0])

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([], [0.0])

    @given(
        samples=st.lists(st.floats(-100, 100), min_size=1, max_size=100),
        grid=st.lists(st.floats(-150, 150), min_size=1, max_size=50),
    )
    @settings(max_examples=100)
    def test_monotone_within_unit_range(self, samples, grid):
        values = empirical_cdf(samples, sorted(grid))
        assert np.all(np.diff(values) >= 0)
        assert np.all((values >= 0.0) & (values <= 1.0))

    @given(samples=st.lists(st.floats(-100, 100), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_reaches_one_at_maximum(self, samples):
        assert empirical_cdf(samples, [max(samples)])[0] == 1.0


class TestHypergeometricPmf:
    def test_enumeration_oracle_small(self):
        """All C(4,2)^2 equally likely subset pairs give {1/6, 2/3, 1/6}."""
        subsets = list(itertools.combinations(range(4), 2))
        outcomes = [len(set(a) & set(b)) for a in subsets for b in subsets]
        for x in range(3):
            exact = outcomes.count(x) / len(outcomes)
            assert abs(hypergeometric_pmf(4, 2, 2, x) - exact) <= 1e-12

    def test_out_of_range_is_zero(self):
        assert hypergeometric_pmf(10, 3, 3, 4) == 0.0
        assert hypergeometric_pmf(10, 3, 3, -1) == 0.0
        assert hypergeometric_pmf(10, 4, 8, 1) == 0.0  # below max(0, draws - (pop - succ))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            hypergeometric_pmf(10, 11, 3, 1)
        with pytest.raises(ValueError):
            hypergeometric_pmf(10, 3, 11, 1)

    @pytest.mark.parametrize(
        "population,successes,draws",
        [(4, 2, 2), (50, 16, 16), (137, 64, 31), (500, 37, 37), (500, 250, 100)],
    )
    def test_normalization_and_mean(self, population, successes, draws):
        """Sums to 1 within 1e-12; mean equals draws * successes / population."""
        xs = range(draws + 1)
        total = sum(hypergeometric_pmf(population, successes, draws, x) for x in xs)
        mean = sum(x * hypergeometric_pmf(population, successes, draws, x) for x in xs)
        assert abs(total - 1.0) <= 1e-12
        assert abs(mean - draws * successes / population) <= 1e-10

    def test_against_scipy(self):
        for population, successes, draws in [(50, 16, 16), (200, 40, 25)]:
            for x in range(draws + 1):
                ours = hypergeometric_pmf(population, successes, draws, x)
                ref = hypergeom(population, successes, draws).pmf(x)
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)


class TestCollisions:
    def test_full_density_collides_everywhere(self):
        counts = sample_collision_counts(8, 8, 20, SeedSpec(0, 0))
        assert np.all(counts == 8)

    def test_counts_within_range(self):
        counts = sample_collision_counts(8, 5, 30, SeedSpec(0, 2))
        assert np.all((max(0, 2 * 5 - 8) <= counts) & (counts <= 5))

    def test_single_slot_mean(self):
        """k=2, s=1: mean collision count within 4 SE of s^2/k = 1/2."""
        counts = sample_collision_counts(2, 1, 100_000, SeedSpec(8, 0))
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 0.5) <= 4.0 * se

    def test_default_parameters_mean(self):
        """k=50, s=16: mean within 4 SE of 5.12."""
        counts = sample_collision_counts(50, 16, 10_000, SeedSpec(8, 1))
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 5.12) <= 4.0 * se


def _layout_counts(k, s, num_pairs, seed):
    """Reference: the counts of one whole sampled layout, compared all at once."""
    r = sample_transform(GraphSparse(s), k, 2 * num_pairs, seed).rows.reshape(num_pairs, 2, s)
    return (r[:, 0, :, None] == r[:, 1, None, :]).sum(axis=(1, 2))


class TestStreamedCollisions:
    @pytest.mark.parametrize("k,s,num_pairs", [(50, 16, 100_000), (4, 2, 100_000), (6, 6, 2000), (2, 1, 10_000)])
    def test_counts_equal_the_layout_rows(self, k, s, num_pairs):
        """(50, 16, 10^5) spans three draw chunks; (6, 6) is the full-set case."""
        seed = SeedSpec(10, k)
        got = sample_collision_counts(k, s, num_pairs, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, _layout_counts(k, s, num_pairs, seed))

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("k,s,num_pairs", [(3, 2, 101), (9, 4, 250), (50, 16, 301), (6, 6, 20)])
    def test_odd_and_tiny_chunks(self, chunk_rows, k, s, num_pairs, monkeypatch):
        """Pairs that straddle a draw chunk, whose first column is carried over."""
        monkeypatch.setattr(core, "_FY_CHUNK_BYTES", 8 * k * chunk_rows)
        seed = SeedSpec(11, chunk_rows)
        assert np.array_equal(sample_collision_counts(k, s, num_pairs, seed), _layout_counts(k, s, num_pairs, seed))

    def test_peak_memory(self):
        """Streaming holds one draw chunk, not the 2*10^5-column layout (76 MB before)."""
        tracemalloc.start()
        try:
            sample_collision_counts(50, 16, 100_000, SeedSpec(10, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20

    def test_peak_memory_of_the_int8_pool(self):
        """k = 50 fits an int8 pool: half the int16 one (20.8 MiB before)."""
        tracemalloc.start()
        try:
            sample_collision_counts(50, 16, 100_000, SeedSpec(10, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 << 20

    def test_peak_memory_of_the_membership_mask(self):
        """Counting by a (pairs, k) membership mask holds one draw chunk at
        a time (11.6 MiB with a (pairs, s, s) comparison and two pools held
        at once)."""
        tracemalloc.start()
        try:
            sample_collision_counts(50, 16, 100_000, SeedSpec(10, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 << 20

    def test_peak_memory_of_the_full_set(self):
        """s == k comes in draw-chunk blocks too, so its mask is one chunk's
        (a single 4 * 10^5-row block would need a 51 MB mask and more)."""
        tracemalloc.start()
        try:
            counts = sample_collision_counts(256, 256, 200_000, SeedSpec(10, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (counts == 256).all()
        assert peak <= 8 << 20

    @pytest.mark.parametrize(
        "k,s,num_pairs,message",
        [
            (4, 5, 10, "column sparsity s=5 exceeds k=4"),
            (4, 0, 10, "need s >= 1 and num_pairs >= 1, got s=0, num_pairs=10"),
            (4, 2, 0, "need s >= 1 and num_pairs >= 1, got s=2, num_pairs=0"),
        ],
        ids=["4-5-10", "4-0-10", "4-2-0"],
    )
    def test_bad_arguments(self, k, s, num_pairs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_collision_counts(k, s, num_pairs, SeedSpec(0, 0))


class TestCollisionTail:
    def test_s_above_k_rejected(self):
        """Refused by sample_collision_counts, before any draw."""
        with pytest.raises(ValueError, match=r"^column sparsity s=5 exceeds k=4$"):
            collision_tail_check(4, 5, 10, SeedSpec(0, 0))

    def test_full_density_never_exceeds(self):
        report = collision_tail_check(6, 6, 2000, SeedSpec(9, 0))
        assert report.empirical_exceedance == 0.0
        assert report.exact_tail == 0.0

    def test_exceedance_matches_exact_tail(self):
        """k=50, s=16: empirical Pr[X > 10.24] within 4 SE of the exact tail."""
        report = collision_tail_check(50, 16, 100_000, SeedSpec(9, 1))
        assert report.threshold == 10.24
        se = math.sqrt(report.exact_tail * (1 - report.exact_tail) / report.num_pairs)
        assert abs(report.empirical_exceedance - report.exact_tail) <= 4.0 * se

    def test_small_case_full_distribution(self):
        """k=4, s=2 collision counts fit {1/6, 2/3, 1/6} by chi-square at 0.001."""
        counts = sample_collision_counts(4, 2, 20_000, SeedSpec(9, 2))
        observed = np.bincount(counts, minlength=3)
        statistic, critical, ok = chi_square_gof(observed, [1 / 6, 2 / 3, 1 / 6])
        assert ok, f"chi2={statistic:.2f} critical={critical:.2f}"


class TestTailBoundReport:
    def test_bound_formula_discrete(self):
        report = tail_bound_report(Rademacher(), 200, 100, 0.5, 50, SeedSpec(10, 0))
        assert report.bound == 2.0 * math.exp(-200 * 0.25 / 12.0)
        assert report.bound == pytest.approx(0.0311, abs=2e-4)

    def test_bound_formula_gaussian(self):
        report = tail_bound_report(DenseGaussian(), 50, 100, 0.5, 50, SeedSpec(10, 1))
        assert report.bound == 2.0 * math.exp(-50 * 0.25 / 8.0)
        assert report.bound == pytest.approx(0.419, abs=5e-4)

    def test_extreme_epsilon_no_failures(self):
        """k=400 near eps=1: bound ~6.7e-15 and no empirical failures."""
        eps = 1.0 - 1e-9
        report = tail_bound_report(Rademacher(), 400, 100, eps, 300, SeedSpec(10, 2))
        assert report.bound == pytest.approx(6.7e-15, rel=0.05)
        assert report.empirical_failure_rate == 0.0

    @pytest.mark.parametrize(
        "kind,k",
        [(Rademacher(), 200), (AchlioptasSparse(), 200), (DenseGaussian(), 50)],
        ids=["rademacher", "achlioptas", "gaussian"],
    )
    def test_empirical_rate_below_bound(self, kind, k):
        report = tail_bound_report(kind, k, 250, 0.5, 1000, SeedSpec(10, 3))
        slack = 4.0 * math.sqrt(report.bound * (1 - report.bound) / report.n)
        assert report.empirical_failure_rate <= report.bound + slack

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ValueError):
            tail_bound_report(Rademacher(), 10, 10, eps, 5, SeedSpec(0, 0))


class TestVerifyLoopsUseBatches:
    """The tail and variance checks project batches of one, checked once."""

    def test_variance_probe_normed_once(self, monkeypatch):
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs))
        gaussian_variance_check(20, 30, 6, SeedSpec(12, 0))
        assert len(calls) == 1

    def test_tail_vectors_checked_once(self, monkeypatch):
        checks = []
        post_init = InputBatch.__post_init__
        monkeypatch.setattr(InputBatch, "__post_init__", lambda self: checks.append(self) or post_init(self))
        tail_bound_report(Rademacher(), 20, 30, 0.5, 6, SeedSpec(12, 1))
        assert len(checks) == 6

    def test_reports_equal_the_per_vector_loops(self):
        """The reports are bitwise those of one distortion() call per trial."""
        k, d, trials, seed = 20, 30, 40, SeedSpec(12, 2)
        probe = sample_unit_sphere(d, seed)
        sq_norms = [
            distortion(sample_transform(DenseGaussian(), k, d, seed.stream(seed.stream_id + 1 + i)), probe) + 1.0
            for i in range(trials)
        ]
        assert gaussian_variance_check(k, d, trials, seed).sample_variance == float(np.var(sq_norms, ddof=1))
        failures = sum(
            abs(
                distortion(
                    sample_transform(AchlioptasSparse(), k, d, seed.stream(seed.stream_id + 2 * i)),
                    sample_unit_sphere(d, seed.stream(seed.stream_id + 2 * i + 1)),
                )
            )
            > 0.3
            for i in range(trials)
        )
        assert 0 < failures < trials
        report = tail_bound_report(AchlioptasSparse(), k, d, 0.3, trials, seed)
        assert report.empirical_failure_rate == failures / trials


class TestFourthMoment:
    def test_rademacher_single_coordinate_is_one(self):
        """d=1: each row gives (+-1)^4 = 1 after normalization."""
        report = fourth_moment_check(Rademacher(), 1, 500, SeedSpec(11, 0))
        assert report.estimate == pytest.approx(1.0, abs=1e-12)

    def test_achlioptas_single_coordinate(self):
        """d=1: fourth moment is 9 * 1/3 = 3 exactly in expectation."""
        report = fourth_moment_check(AchlioptasSparse(), 1, 20_000, SeedSpec(11, 1))
        assert abs(report.estimate - 3.0) <= 4.0 * report.std_error

    def test_gaussian_matches_three(self):
        report = fourth_moment_check(DenseGaussian(), 300, 20_000, SeedSpec(11, 2))
        assert abs(report.estimate - 3.0) <= 4.0 * report.std_error

    def test_discrete_kinds_below_gaussian(self):
        for stream, kind in enumerate([Rademacher(), AchlioptasSparse()]):
            report = fourth_moment_check(kind, 400, 20_000, SeedSpec(12, stream))
            assert report.estimate <= 3.0 + 4.0 * report.std_error

    def test_graph_kind_rejected(self):
        with pytest.raises(ValueError):
            fourth_moment_check(GraphSparse(2), 10, 10, SeedSpec(0, 0))

    def test_peak_memory_one_transform_at_a_time(self):
        """Each (1024, 500) Achlioptas batch (3.9 MiB) is freed before the
        next is drawn (8.8 MiB when two were held at once)."""
        tracemalloc.start()
        try:
            fourth_moment_check(AchlioptasSparse(), 500, 4000, SeedSpec(12, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * (1 << 20)


class TestGaussianVariance:
    def test_matches_chi_squared_variance(self):
        """Sample variance of |Rv|^2 within 15% of 2/k at k=50."""
        report = gaussian_variance_check(50, 100, 3000, SeedSpec(13, 0))
        assert report.expected_variance == 0.04
        rel = abs(report.sample_variance - report.expected_variance) / report.expected_variance
        assert rel <= 0.15


class TestChiSquareGof:
    def test_accepts_true_distribution(self):
        rng = np.random.default_rng(7)
        counts = np.bincount(rng.integers(0, 4, size=40_000), minlength=4)
        _, _, ok = chi_square_gof(counts, np.full(4, 0.25))
        assert ok

    def test_rejects_wrong_distribution(self):
        counts = np.array([10_000, 10_000, 20_000, 0])
        _, _, ok = chi_square_gof(counts, np.full(4, 0.25))
        assert not ok

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [1.0]], ids=["shorter", "broadcast"])
    def test_rejects_misaligned_input(self, probs):
        with pytest.raises(ValueError, match=r"^observed counts and expected probabilities must align$"):
            chi_square_gof([1, 2, 3], probs)

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1])
    def test_critical_value_equals_scipy_chi2_ppf(self, alpha):
        from scipy.stats import chi2

        for df in range(1, 31):
            counts = np.full(df + 1, 100)
            _, critical, _ = chi_square_gof(counts, np.full(df + 1, 1.0 / (df + 1)), alpha=alpha)
            assert critical == float(chi2.ppf(1.0 - alpha, df))


class TestMultinomialExactTest:
    @pytest.mark.parametrize("total", [0, 1, 3, 7, 29])
    def test_p_value_sums_the_outcomes_no_more_likely(self, total):
        """Against scipy's pmf summed over every count vector of the total."""
        from scipy.stats import multinomial

        probs = [1 / 6, 2 / 3, 1 / 6]
        outcomes = [(a, b, total - a - b) for a in range(total + 1) for b in range(total + 1 - a)]
        pmf = {o: multinomial.pmf(o, total, probs) for o in outcomes}
        for observed in outcomes:
            p_value, ok = multinomial_exact_test(observed, probs)
            expected = sum(p for p in pmf.values() if p <= pmf[observed] * (1 + 1e-7))
            assert p_value == pytest.approx(min(expected, 1.0), rel=1e-9)
            assert ok == (p_value >= GOF_ALPHA)

    def test_rejects_at_alpha(self):
        p_value, ok = multinomial_exact_test([9, 0, 0], [1 / 6, 2 / 3, 1 / 6])
        assert p_value < GOF_ALPHA and not ok

    def test_rejects_misaligned_input(self):
        with pytest.raises(ValueError, match=r"^observed counts and expected probabilities must align$"):
            multinomial_exact_test([1, 2], [0.5, 0.25, 0.25])

    @pytest.mark.parametrize(
        "counts,probs", [([2, -1, 3], [0.25, 0.5, 0.25]), ([2, 1, 3], [0.5, 0.5, 0.0])], ids=["count", "prob"]
    )
    def test_rejects_negative_counts_and_zero_probabilities(self, counts, probs):
        with pytest.raises(ValueError, match=r"^need non-negative counts and positive probabilities$"):
            multinomial_exact_test(counts, probs)


def test_cli_import_leaves_out_scipy_stats():
    """The command's import path stays free of scipy.stats, the slowest scipy import."""
    code = "import sys, jlproj.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_special():
    """chi_square_gof imports scipy.special when called, not when the CLI loads."""
    code = "import sys, jlproj.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
