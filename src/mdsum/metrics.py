"""Evaluation metrics for posterior queries.

All metrics are deterministic given their inputs (and an explicit rng where
sampling is involved). Each sample_mmd call takes its median-heuristic
bandwidth from its own pooled inputs, so the MMDs of two methods against
one reference are taken under two different kernels and are not strictly
comparable: a difference between them mixes the methods with the kernels.
"""

from __future__ import annotations

import numpy as np

from .kernels import median_heuristic, mmd2_exact
from .simulators import TaskSpec, make_task  # noqa: F401  (perfbench/tracing.py patches make_task here)
from .util import as_2d_f64


def rmse(samples, theta_star) -> float:
    """Root mean squared error of the posterior mean against the truth."""
    s = as_2d_f64("samples", samples)
    t = np.asarray(theta_star, dtype=np.float64)
    if t.shape != (s.shape[1],):
        raise ValueError(f"theta_star must have shape ({s.shape[1]},), got {t.shape}")
    diff = s.mean(axis=0) - t
    return float(np.sqrt(np.mean(diff * diff)))


def coverage(samples, theta_star, alpha: float = 0.05) -> float:
    """Fraction of dimensions whose central (1 - alpha) interval covers the truth.

    Intervals are empirical [alpha/2, 1 - alpha/2] quantiles per dimension.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    s = as_2d_f64("samples", samples)
    t = np.asarray(theta_star, dtype=np.float64)
    if t.shape != (s.shape[1],):
        raise ValueError(f"theta_star must have shape ({s.shape[1]},), got {t.shape}")
    lo = np.quantile(s, alpha / 2.0, axis=0)
    hi = np.quantile(s, 1.0 - alpha / 2.0, axis=0)
    return float(np.mean((lo <= t) & (t <= hi)))


def sample_mmd(samples_a, samples_b) -> float:
    """MMD (square root of the biased estimate) between two sample sets.

    The RBF bandwidth is the median heuristic on the pooled rows (sampled
    over kernels.MAX_PAIRS pairs when there are more). Swapping the arguments
    changes the value in its last bits, as in mmd2_exact; on the sampled
    path it changes more, since the fixed pair sample then picks other
    pairs of the swapped stack.
    """
    a = as_2d_f64("samples_a", samples_a)
    b = as_2d_f64("samples_b", samples_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    bandwidth = median_heuristic(np.vstack([a, b]))
    return float(np.sqrt(max(mmd2_exact(bandwidth, a, b), 0.0)))


def predictive_mmd(task: TaskSpec, posterior_samples, clean_data, n_rep: int,
                   rng: np.random.Generator) -> float:
    """Posterior predictive check: MMD between simulated and clean rows.

    n_rep parameters are resampled from the posterior draws, then one
    batched task.simulate_raw call produces one observation row per
    parameter, drawing its noise row by row. Support checks are skipped,
    since posterior draws may fall outside the prior box.
    """
    if n_rep < 2:
        raise ValueError(f"n_rep must be >= 2, got {n_rep}")
    thetas = as_2d_f64("posterior_samples", posterior_samples)
    clean = as_2d_f64("clean_data", clean_data)
    idx = rng.choice(thetas.shape[0], size=n_rep, replace=True)
    return sample_mmd(task.simulate_raw(thetas[idx], rng), clean)


def summary_oracle_distance(s_star, s_oracle) -> float:
    """Euclidean distance between an adapted summary and the clean-data summary."""
    a = np.asarray(s_star, dtype=np.float64)
    b = np.asarray(s_oracle, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"summaries must be vectors of equal length, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a - b))
