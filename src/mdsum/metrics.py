"""Evaluation metrics for posterior queries.

All metrics are deterministic given their inputs (and an explicit rng where
sampling is involved). reference_mmds scores every sample set of one item
under one kernel, whose median-heuristic bandwidth comes from the reference
set alone, so the MMDs of two methods against one reference differ only
through the methods' samples.
"""

from __future__ import annotations

import numpy as np

from .kernels import median_heuristic, mmd2_exact_many
from .simulators import TaskSpec, make_task  # noqa: F401  (perfbench/tracing.py patches make_task here)
from .util import as_2d_f64

COVERAGE_ALPHA = 0.05  # coverage's intervals have credible level 1 - COVERAGE_ALPHA


def rmse(samples, theta_star) -> float:
    """Root mean squared error of the posterior mean against the truth."""
    s = as_2d_f64("samples", samples)
    t = np.asarray(theta_star, dtype=np.float64)
    if t.shape != (s.shape[1],):
        raise ValueError(f"theta_star must have shape ({s.shape[1]},), got {t.shape}")
    diff = s.mean(axis=0) - t
    return float(np.sqrt(np.mean(diff * diff)))


def coverage(samples, theta_star) -> float:
    """Fraction of dimensions whose central (1 - COVERAGE_ALPHA) interval
    covers the truth.

    Intervals are empirical [alpha/2, 1 - alpha/2] quantiles per dimension.
    """
    s = as_2d_f64("samples", samples)
    t = np.asarray(theta_star, dtype=np.float64)
    if t.shape != (s.shape[1],):
        raise ValueError(f"theta_star must have shape ({s.shape[1]},), got {t.shape}")
    lo = np.quantile(s, COVERAGE_ALPHA / 2.0, axis=0)
    hi = np.quantile(s, 1.0 - COVERAGE_ALPHA / 2.0, axis=0)
    return float(np.mean((lo <= t) & (t <= hi)))


def sample_mmd(samples_a, samples_b) -> float:
    """MMD (square root of the biased estimate) between two sample sets.

    The RBF bandwidth is the median heuristic on the stacked rows, a then b
    (over a default_rng(0) sample of kernels.MAX_PAIRS pairs when there are
    more), and the estimate is mmd2_exact_many's for a against b. Swapping
    the arguments changes the value in its last bits, as the cross term
    then sums in another order; on the sampled path it changes more, since
    the same pair sample then picks other rows of the swapped stack.
    """
    a = as_2d_f64("samples_a", samples_a)
    b = as_2d_f64("samples_b", samples_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    bandwidth = median_heuristic(np.vstack([a, b]))
    return float(np.sqrt(max(mmd2_exact_many(bandwidth, [a], b)[0], 0.0)))


def reference_mmds(sample_sets, reference) -> list[float]:
    """MMD (square root of the biased estimate) of each set to a reference.

    The RBF bandwidth is the median heuristic on the reference rows alone
    (sampled over kernels.MAX_PAIRS pairs when there are more), so every
    set is scored under the same kernel, and a set's value does not depend
    on the other sets.
    """
    ref = as_2d_f64("reference", reference)
    bandwidth = median_heuristic(ref)
    return [float(np.sqrt(max(m, 0.0))) for m in mmd2_exact_many(bandwidth, sample_sets, ref)]


def predictive_mmd(task: TaskSpec, posterior_sets, clean_data, n_rep: int, rngs) -> list[float]:
    """Posterior predictive check: MMD between simulated and clean rows,
    one value per (posterior samples, rng) pair.

    For each pair, n_rep parameters are resampled from the posterior draws
    on that rng, then one batched task.simulate_raw call on it produces one
    observation row per parameter, drawing its noise row by row. Support
    checks are skipped, since posterior draws may fall outside the prior
    box. All sets are scored by reference_mmds against the clean rows.
    """
    if n_rep < 2:
        raise ValueError(f"n_rep must be >= 2, got {n_rep}")
    simulated = []
    for samples, rng in zip(posterior_sets, rngs, strict=True):
        thetas = as_2d_f64("posterior_samples", samples)
        idx = rng.choice(thetas.shape[0], size=n_rep, replace=True)
        simulated.append(task.simulate_raw(thetas[idx], rng))
    return reference_mmds(simulated, clean_data)


def summary_oracle_distance(s_star, s_oracle) -> float:
    """Euclidean distance between an adapted summary and the clean-data summary."""
    a = np.asarray(s_star, dtype=np.float64)
    b = np.asarray(s_oracle, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"summaries must be vectors of equal length, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a - b))
