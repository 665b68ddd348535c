"""Controlled corruption of observed datasets.

Three mechanisms, one per benchmark family. Each task has one kind, named
by its simulators.TASKS record:

- row outliers: each row is independently replaced (prob eps) by z * delta
  * ones, z a random sign, for the Gaussian-family tasks;
- off-prior trajectories: round(eps * N) trajectories are swapped for
  simulations at a fixed out-of-prior OU parameter with inflated noise,
  for the OU task;
- weekend underreporting: in round(eps * N) trajectories, 5% of each
  Saturday/Sunday count moves to the following Monday (day 0 is a Monday;
  mass whose Monday falls past the horizon is dropped), for the SIR task.

eps = 0 always returns the input unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulators import TASKS, TaskSpec, simulate_oup_trajectories
from .util import as_2d_f64

OUP_CONTAMINANT_THETA = (-0.5, 1.0)
OUP_CONTAMINANT_SIGMA2 = 0.5
WEEKEND_FRACTION = 0.05


@dataclass
class ContaminationSpec:
    kind: str  # row_outliers | offprior_trajectories | weekend_underreporting
    eps: float = 0.0
    delta: float = 0.0  # row_outliers only

    def __post_init__(self):
        if self.kind not in {record.contamination for record in TASKS.values()}:
            raise ValueError(f"unknown contamination kind {self.kind!r}")
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError(f"eps must lie in [0, 1], got {self.eps}")
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")


def _count(eps: float, n: int) -> int:
    # round-half-up, so eps=0.25 with N=100 gives exactly 25 rows
    return int(np.floor(eps * n + 0.5))


def contaminate_gaussian(data, eps: float, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Replace each row independently (prob eps) by sign * delta * ones."""
    x = as_2d_f64("data", data).copy()
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    n = x.shape[0]
    mask = rng.random(n) < eps
    signs = rng.integers(0, 2, size=n) * 2 - 1
    x[mask] = signs[mask, None] * delta
    return x


def contaminate_oup(data, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Swap round(eps * N) trajectories for OU simulations at the off-prior
    OUP_CONTAMINANT_THETA with noise variance OUP_CONTAMINANT_SIGMA2."""
    x = as_2d_f64("data", data).copy()
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    n, horizon = x.shape
    k = _count(eps, n)
    if k == 0:
        return x
    idx = rng.choice(n, size=k, replace=False)
    x[idx] = simulate_oup_trajectories(OUP_CONTAMINANT_THETA, k, horizon, rng,
                                       sigma2=OUP_CONTAMINANT_SIGMA2)
    return x


def contaminate_sir(data, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Move WEEKEND_FRACTION of weekend counts to the following Monday.

    Applied to round(eps * N) randomly chosen trajectories. Day t is a
    Saturday when t % 7 == 5 and a Sunday when t % 7 == 6; weekends never
    receive mass, so totals are conserved whenever the following Monday
    lies inside the horizon.
    """
    x = as_2d_f64("data", data).copy()
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    n, horizon = x.shape
    k = _count(eps, n)
    if k == 0:
        return x
    idx = rng.choice(n, size=k, replace=False)
    days = np.arange(horizon)
    for t in days[(days % 7 == 5) | (days % 7 == 6)]:
        monday = t + (7 - t % 7)
        moved = WEEKEND_FRACTION * x[idx, t]
        x[idx, t] -= moved
        if monday < horizon:
            x[idx, monday] += moved
    return x


def apply_contamination(spec: ContaminationSpec, task: TaskSpec, data,
                        rng: np.random.Generator) -> np.ndarray:
    if task.name not in TASKS or TASKS[task.name].contamination != spec.kind:
        raise ValueError(f"{spec.kind} does not apply to task {task.name!r}")
    if spec.kind == "row_outliers":
        return contaminate_gaussian(data, spec.eps, spec.delta, rng)
    if spec.kind == "offprior_trajectories":
        return contaminate_oup(data, spec.eps, rng)
    return contaminate_sir(data, spec.eps, rng)
