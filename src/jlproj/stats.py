"""Statistical oracles and empirical bound checks for the constructions.

The checks here compare Monte Carlo estimates against closed forms: the
chi-squared variance 2/k of |Rv|^2 under the Gaussian family, the fourth
moment cap E[(R_j v)^4] <= 3 for the unit-variance discrete families, the
Hypergeometric(k, s, s) law of per-pair collision counts in the graph
construction, and the exponential norm-deviation tails

    Pr[| |Rv|^2 - 1 | > eps] <= 2 exp(-k eps^2 / 8)   (Gaussian entries)
                              <= 2 exp(-k eps^2 / 12)  (+-1 / sparse discrete)

Acceptance convention: empirical rates are compared at 4 standard errors
(false-alarm rate ~6e-5 per check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .apply import distortion_batch
from .constructions import sample_transform
from .core import (
    AchlioptasSparse,
    ConstructionKind,
    DenseGaussian,
    Rademacher,
    SeedSpec,
    check_entry_budget,
    derive_stream,
    sample_unit_sphere_batch,
    subset_blocks,
)

# Unused here, but perfbench/spans.py traces both by their names in this
# module, and a name it cannot find fails its traced run.
from .apply import distortion  # noqa: F401
from .core import sample_unit_sphere  # noqa: F401


@dataclass(frozen=True)
class TailReport:
    """Empirical norm-deviation failure rate next to its theoretical bound."""

    empirical_failure_rate: float
    bound: float
    n: int


@dataclass(frozen=True)
class CollisionTailReport:
    """Observed exceedance of the 2s^2/k collision threshold vs the exact tail."""

    num_pairs: int
    threshold: float
    empirical_exceedance: float
    exact_tail: float


@dataclass(frozen=True)
class FourthMomentReport:
    """Normalized fourth-moment estimate E[(R_j v)^4] on the all-equal vector."""

    estimate: float
    std_error: float


@dataclass(frozen=True)
class VarianceReport:
    """Sample variance of |Rv|^2 against the chi-squared value 2/k."""

    sample_variance: float
    expected_variance: float


def quantile(samples, p: float) -> float:
    """Nearest-rank quantile: sorted sample at 0-based index ceil(p*n) - 1.

    The probe is read as the decimal it prints as (p=0.1 means exactly
    1/10) and the rank is computed in exact rational arithmetic, so float
    rounding of p*n can never shift it across an integer boundary.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("quantile of an empty sample set")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probe must lie in (0, 1), got {p}")
    rank = math.ceil(Fraction(repr(float(p))) * arr.size)
    return float(np.sort(arr)[rank - 1])


def empirical_cdf(samples, grid) -> np.ndarray:
    """Fraction of samples <= g for each grid point g (grid must be ascending)."""
    arr = np.asarray(samples, dtype=np.float64)
    pts = np.asarray(grid, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empirical_cdf of an empty sample set")
    if pts.size > 1 and np.any(np.diff(pts) < 0):
        raise ValueError("grid must be sorted ascending")
    return np.searchsorted(np.sort(arr), pts, side="right") / arr.size


def sample_collision_counts(k: int, s: int, num_pairs: int, seed: SeedSpec) -> np.ndarray:
    """Collision counts of ``num_pairs`` independent column pairs, int64.

    Columns (2m, 2m+1) of the graph-construction layout
    ``sample_transform(GraphSparse(s), k, 2 * num_pairs, seed)`` form pair m,
    so every pair is an independent draw of the per-pair collision law.  A
    layout draws its rows before its signs, so the rows are streamed here
    one draw chunk at a time from the same draws
    (:func:`~jlproj.core.subset_blocks`), and the signs are never drawn;
    the layout's entry budget still applies.  Pair m's count is the number
    of column 2m+1's rows found in a (pairs, k) membership mask of column
    2m's, so the scratch is one chunk's mask; a pair split across two
    chunks carries its first column over.
    """
    if s < 1 or num_pairs < 1:
        raise ValueError(f"need s >= 1 and num_pairs >= 1, got s={s}, num_pairs={num_pairs}")
    if s > k:
        raise ValueError(f"column sparsity s={s} exceeds k={k}")
    check_entry_budget("graph layout", 2 * num_pairs, s)
    counts = np.empty(num_pairs, dtype=np.int64)
    left = None  # even column whose partner starts the next block
    for start, block in subset_blocks(k, s, derive_stream(seed), 2 * num_pairs):
        if start % 2:
            counts[start // 2] = _membership_counts(left[None], block[:1], k)[0]
            start, block = start + 1, block[1:]
        if len(block) % 2:
            left = block[-1].copy()
            block = block[:-1]
        counts[start // 2 : (start + len(block)) // 2] = _membership_counts(block[0::2], block[1::2], k)
        del block  # freed before the next chunk's pool is drawn
    return counts


def _membership_counts(first: np.ndarray, second: np.ndarray, k: int) -> np.ndarray:
    """How many entries row m of ``second`` shares with row m of ``first``,
    for each m; rows hold distinct values in range(k).  Marks and reads a
    (rows, k) mask one column at a time, so only one column's indices are
    widened."""
    rows = np.arange(len(first))
    seen = np.zeros((len(first), k), dtype=bool)
    for col in first.T:
        seen[rows, col] = True
    counts = np.zeros(len(first), dtype=np.int64)
    for col in second.T:
        counts += seen[rows, col]
    return counts


def collision_tail_check(k: int, s: int, num_pairs: int, seed: SeedSpec) -> CollisionTailReport:
    """Empirical Pr[collisions > 2s^2/k] next to the exact hypergeometric tail."""
    if s > k:
        raise ValueError(f"column sparsity s={s} exceeds k={k}")
    counts = sample_collision_counts(k, s, num_pairs, seed)
    threshold = 2.0 * s * s / k
    exact = sum(hypergeometric_pmf(k, s, s, x) for x in range(int(threshold) + 1, s + 1))
    return CollisionTailReport(
        num_pairs=num_pairs,
        threshold=threshold,
        empirical_exceedance=float(np.mean(counts > threshold)),
        exact_tail=exact,
    )


def _log_choose(n: int, r: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def hypergeometric_pmf(population: int, successes: int, draws: int, x: int) -> float:
    """P[X = x] for X ~ Hypergeometric(population, successes, draws).

    Computed in log space, C(successes, x) C(population - successes,
    draws - x) / C(population, draws), so binomials stay finite for
    populations in the thousands.  Out-of-range x gives 0, not an error.
    """
    if not 0 <= draws <= population or not 0 <= successes <= population:
        raise ValueError(
            f"need 0 <= successes, draws <= population, got {successes}, {draws}, {population}"
        )
    if x < max(0, draws - (population - successes)) or x > min(successes, draws):
        return 0.0
    log_p = (
        _log_choose(successes, x)
        + _log_choose(population - successes, draws - x)
        - _log_choose(population, draws)
    )
    return math.exp(log_p)


def tail_bound_report(
    kind: ConstructionKind, k: int, d: int, epsilon: float, trials: int, seed: SeedSpec
) -> TailReport:
    """Fraction of (fresh transform, fresh sphere vector) trials with |delta| > eps.

    The bound column is 2 exp(-k eps^2 / 8) for the Gaussian family and
    2 exp(-k eps^2 / 12) for the discrete ones.  Trial i consumes streams
    (seed.stream_id + 2i, seed.stream_id + 2i + 1), so trials are
    independent and individually reproducible.  Each trial's vector is a
    batch of one, checked once.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    failures = 0
    for i in range(trials):
        transform = sample_transform(kind, k, d, seed.stream(seed.stream_id + 2 * i))
        xs = sample_unit_sphere_batch(d, 1, seed.stream(seed.stream_id + 2 * i + 1))
        if abs(distortion_batch(transform, xs)[0]) > epsilon:
            failures += 1
        del transform  # freed before the next trial draws its own
    denom = 8.0 if isinstance(kind, DenseGaussian) else 12.0
    bound = 2.0 * math.exp(-k * epsilon * epsilon / denom)
    return TailReport(empirical_failure_rate=failures / trials, bound=bound, n=trials)


_ROW_BATCH = 1024


def fourth_moment_check(
    kind: ConstructionKind, d: int, trials: int, seed: SeedSpec
) -> FourthMomentReport:
    """Monte Carlo estimate of E[(R_j v)^4] on the worst-case all-equal vector.

    v = (1, ..., 1)/sqrt(d) maximizes the fourth moment for the discrete
    families.  Stored rows carry the 1/sqrt(k) scale, so each sample is
    k^2 (R_j v)^4; the Gaussian value is exactly 3, the discrete families
    sit at or below it.  Rows are batched ``_ROW_BATCH`` per transform,
    batch c drawing from stream seed.stream_id + c.
    """
    if not isinstance(kind, (DenseGaussian, Rademacher, AchlioptasSparse)):
        raise ValueError(f"fourth-moment check needs i.i.d.-entry rows, got {kind!r}")
    v = np.full(d, 1.0 / np.sqrt(d))
    samples = np.empty(trials)
    done = 0
    batch_index = 0
    while done < trials:
        rows = min(_ROW_BATCH, trials - done)
        transform = sample_transform(kind, rows, d, seed.stream(seed.stream_id + batch_index))
        y = transform.entries @ v
        del transform  # freed before the next batch draws its own
        samples[done : done + rows] = (rows * rows) * y**4
        done += rows
        batch_index += 1
    estimate = float(samples.mean())
    std_error = float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return FourthMomentReport(estimate=estimate, std_error=std_error)


def gaussian_variance_check(k: int, d: int, trials: int, seed: SeedSpec) -> VarianceReport:
    """Sample variance of |Rv|^2 over fresh Gaussian transforms vs 2/k.

    k |Rv|^2 is chi-squared with k degrees of freedom for any fixed unit v,
    so Var(|Rv|^2) = 2/k.  The probe vector draws stream seed.stream_id;
    trial i draws stream seed.stream_id + 1 + i.  The probe is one batch
    of one for every trial, so its norm is computed once.
    """
    probe = sample_unit_sphere_batch(d, 1, seed)
    sq_norms = np.empty(trials)
    for i in range(trials):
        transform = sample_transform(DenseGaussian(), k, d, seed.stream(seed.stream_id + 1 + i))
        sq_norms[i] = distortion_batch(transform, probe)[0] + 1.0
        del transform  # freed before the next trial draws its own
    return VarianceReport(sample_variance=float(sq_norms.var(ddof=1)), expected_variance=2.0 / k)


def chi_square_gof(observed_counts, expected_probs, alpha: float = 0.001):
    """Pearson goodness-of-fit: (statistic, critical value, passed at alpha).

    The critical value is the chi-squared (1 - alpha)-quantile with
    ``len - 1`` degrees of freedom, 2 * P^-1(df/2, 1 - alpha) for the
    regularized lower incomplete gamma P: the formula scipy.stats.chi2.ppf
    evaluates, without importing scipy.stats.
    """
    from scipy.special import gammaincinv  # off the import path of the CLI

    obs = np.asarray(observed_counts, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if obs.shape != probs.shape:
        raise ValueError("observed counts and expected probabilities must align")
    expected = probs * obs.sum()
    statistic = float(((obs - expected) ** 2 / expected).sum())
    critical = float(2.0 * gammaincinv((obs.size - 1) / 2.0, 1.0 - alpha))
    return statistic, critical, statistic <= critical
