"""Benchmark simulators and their hand-crafted summary statistics.

Each task is declared once. Its constructor gives only a prior, one
batched draw, a summary statistic and, for a bounded prior, a support
check; _task builds the TaskSpec from them, so every task's simulators and
summary share one code path. simulate_many(thetas, rngs) produces one
dataset (N rows, one row per observation or trajectory) per parameter,
dataset m drawing its noise from rngs[m] alone; it checks shapes but not
the prior support. simulate(theta, rng) is the support check plus a
one-dataset simulate_many call. simulate_raw(thetas, rng) is the unchecked
one-row case: it takes (n, theta_dim) parameters and returns (n, obs_dim),
one observation row per parameter, each row drawing its noise from rng in
turn, so posterior-predictive resampling can probe out-of-prior parameters
in one call and gets the same rows as n sequential single-row simulations.
summary(data) checks the dataset's shape and applies the statistic.

TASKS maps each task name to its TaskRecord, which holds every per-task
fact, from its constructor and sizes (also its config keys) to its engine;
make_task rebuilds a task from its name and params through it.

The OU and SIR tasks share one Euler loop each, driven by a pre-drawn noise
block of shape (horizon, n_traj) and one parameter for all paths or one
per path. A dataset draws its block step-major; a batch of datasets puts
the blocks side by side. A numpy Generator gives the same values for one
large draw as for successive small ones, and every step is element-wise,
so a path does not depend on the other paths of its call. Trajectory
values are clipped at +-1e30 to keep explosive off-prior dynamics finite.

All randomness flows through numpy Generators. build_training_pool gives
record i its own stream derive_rng(master_seed, "pool", i), which draws the
prior sample first and then the dataset's noise block, and simulates a
chunk of records per simulate_many call; the pool does not depend on the
chunking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .util import derive_rng, replacing

TRAJECTORY_CLIP = 1e30
_POOL_CHUNK_ELEMS = 2 ** 20  # dataset values per simulate_many call of a pool (8 MB)


@dataclass
class TaskSpec:
    name: str
    theta_dim: int
    obs_dim: int  # length of one dataset row
    n_obs: int  # rows per dataset
    summary_dim: int
    params: dict
    prior_sample: Callable
    simulate: Callable  # (theta, rng) -> (n_obs, obs_dim), validates support
    # (thetas (M, theta_dim), rngs (M,)) -> (M, n_obs, obs_dim): dataset m is
    # simulate(thetas[m], rngs[m]) bit for bit, without the support check
    simulate_many: Callable
    # (thetas (n, theta_dim), rng) -> (n, obs_dim): one row per parameter,
    # the rows drawing from rng in turn, no support check
    simulate_raw: Callable
    summary: Callable  # (dataset) -> (summary_dim,)


@dataclass
class TrainingPool:
    task_name: str
    params: dict
    master_seed: int
    thetas: np.ndarray  # (M, theta_dim)
    datasets: np.ndarray  # (M, n_obs, obs_dim)
    summaries: np.ndarray  # (M, summary_dim)


def _check_thetas(thetas, theta_dim, rngs=None):
    t = np.asarray(thetas, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] != theta_dim:
        raise ValueError(f"thetas must have shape (n, {theta_dim}), got {t.shape}")
    if rngs is not None and len(rngs) != t.shape[0]:
        raise ValueError(f"expected one rng per parameter, got {len(rngs)} for {t.shape[0]}")
    return t


def _task(name, params, theta_dim, obs_dim, summary_dim, prior_sample, draw, statistic,
          support=None) -> TaskSpec:
    """The TaskSpec of a task from its parts. params holds n_obs and
    whatever else rebuilds the task. draw(t, rngs, rows) -> (M, rows,
    obs_dim) takes checked (M, theta_dim) parameters and draws dataset m's
    noise from rngs[m]. statistic maps a checked (n_obs, obs_dim) dataset
    to its summary. support(theta), if given, raises ValueError for a
    parameter outside the prior."""
    n_obs = params["n_obs"]

    def simulate_many(thetas, rngs):
        return draw(_check_thetas(thetas, theta_dim, rngs), rngs, n_obs)

    def simulate_raw(thetas, rng):
        t = _check_thetas(thetas, theta_dim)
        return draw(t, [rng] * t.shape[0], 1)[:, 0]

    def simulate(theta, rng):
        t = np.asarray(theta, dtype=np.float64)
        if t.shape != (theta_dim,):
            raise ValueError(f"theta must have shape ({theta_dim},), got {t.shape}")
        if support is not None:
            support(t)
        return simulate_many(t[None], [rng])[0]

    def summary(data):
        x = np.asarray(data, dtype=np.float64)
        if x.shape != (n_obs, obs_dim):
            raise ValueError(f"{name}_task expects data of shape ({n_obs}, {obs_dim}), "
                             f"got {x.shape}")
        return statistic(x)

    return TaskSpec(name=name, theta_dim=theta_dim, obs_dim=obs_dim, n_obs=n_obs,
                    summary_dim=summary_dim, params=params, prior_sample=prior_sample,
                    simulate=simulate, simulate_many=simulate_many,
                    simulate_raw=simulate_raw, summary=summary)


def _noise_blocks(rngs, shape) -> np.ndarray:
    """(M, *shape) standard normals, block m drawn from rngs[m] straight
    into its place."""
    noise = np.empty((len(rngs),) + shape)
    for rng, block in zip(rngs, noise):
        rng.standard_normal(out=block)
    return noise


# ---------------------------------------------------------------------------
# Gaussian location
# ---------------------------------------------------------------------------

def gaussian_task(d: int, n_obs: int) -> TaskSpec:
    """theta ~ N(0, I_d); observations x_i ~ N(theta, I_d); summary = sample mean."""
    if d < 1 or n_obs < 1:
        raise ValueError(f"d and n_obs must be positive, got {d}, {n_obs}")

    def draw(t, rngs, rows):
        data = _noise_blocks(rngs, (rows, d))
        data += t[:, None, :]
        return data

    return _task("gaussian", {"d": d, "n_obs": n_obs}, d, d, d,
                 lambda rng: rng.standard_normal(d), draw, lambda x: x.mean(axis=0))


def gaussian_posterior(summary: np.ndarray, n_obs: int):
    """Conjugate posterior for the Gaussian location task.

    With a standard normal prior and unit observation noise the posterior is
    N(n/(n+1) * xbar, 1/(n+1) * I).
    """
    s = np.asarray(summary, dtype=np.float64)
    if n_obs < 1:
        raise ValueError(f"n_obs must be positive, got {n_obs}")
    mean = (n_obs / (n_obs + 1.0)) * s
    var = 1.0 / (n_obs + 1.0)
    return mean, var


# ---------------------------------------------------------------------------
# Gaussian linear factor model
# ---------------------------------------------------------------------------

def factor_task(obs_dim: int, n_obs: int, loading) -> TaskSpec:
    """x_i ~ N(A theta, I_D) with a frozen (D, 2) loading matrix A.

    A is stored in params so the task can be rebuilt exactly; a run draws
    it once, with _factor_loading. The summary is the least-squares readout
    pinv(A) @ xbar.
    """
    if obs_dim < 2 or n_obs < 1:
        raise ValueError(f"obs_dim must be >= 2 and n_obs positive, got {obs_dim}, {n_obs}")
    a = np.asarray(loading, dtype=np.float64)
    if a.shape != (obs_dim, 2):
        raise ValueError(f"loading must have shape ({obs_dim}, 2), got {a.shape}")
    if np.linalg.svd(a, compute_uv=False).min() < 1e-8:
        raise ValueError("loading matrix is numerically singular")
    pinv = np.linalg.pinv(a)

    def draw(t, rngs, rows):
        data = _noise_blocks(rngs, (rows, obs_dim))
        # one a @ theta per parameter: a single t @ a.T rounds some
        # entries differently in the last bit
        data += np.array([a @ row for row in t]).reshape(t.shape[0], 1, obs_dim)
        return data

    return _task("factor", {"obs_dim": obs_dim, "n_obs": n_obs, "loading": a.tolist()},
                 2, obs_dim, 2, lambda rng: rng.standard_normal(2), draw,
                 lambda x: pinv @ x.mean(axis=0))


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck process
# ---------------------------------------------------------------------------

OUP_X0 = 10.0
OUP_SIGMA2 = 0.1
OUP_BOUNDS = ((0.0, 2.0), (-2.0, 2.0))


def _oup_paths(theta, noise: np.ndarray, sigma2: float = OUP_SIGMA2) -> np.ndarray:
    """Euler-Maruyama paths of dX = th1 (exp(th2) - X) dt + sigma dW, with
    unit steps from X_0 = OUP_X0.

    theta is one parameter (2,) for every path or one per path (n_traj, 2).
    noise holds the standard normal increments, shape (horizon, n_traj);
    step t uses row t. Records X_1 .. X_horizon (the fixed X_0 is not part
    of the data) as (n_traj, horizon).
    """
    th = np.asarray(theta, dtype=np.float64)
    th1, th2 = th[..., 0], th[..., 1]
    horizon, n_traj = noise.shape
    sigma = np.sqrt(sigma2)
    level = np.exp(th2)
    x = np.full(n_traj, OUP_X0)
    out = np.empty((n_traj, horizon))
    for t in range(horizon):
        x = x + th1 * (level - x) + sigma * noise[t]
        np.clip(x, -TRAJECTORY_CLIP, TRAJECTORY_CLIP, out=x)
        out[:, t] = x
    return out


def simulate_oup_trajectories(theta, n_traj: int, horizon: int, rng: np.random.Generator,
                              sigma2: float = OUP_SIGMA2) -> np.ndarray:
    """n_traj OU paths from one parameter, noise drawn step-major."""
    return _oup_paths(theta, rng.standard_normal((horizon, n_traj)), sigma2)


def _trajectory_datasets(paths, thetas: np.ndarray, rngs, n_obs: int,
                         horizon: int) -> np.ndarray:
    """n_obs paths per parameter from one paths call, as (M, n_obs, horizon);
    rngs[m] draws dataset m's step-major (horizon, n_obs) noise block."""
    noise = _noise_blocks(rngs, (horizon, n_obs)).transpose(1, 0, 2).reshape(horizon, -1)
    return paths(np.repeat(thetas, n_obs, axis=0), noise).reshape(len(rngs), n_obs, horizon)


def _lag1_corr_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row of a with the same row of b (both
    (n, m)), 0 where either row is constant or the value is not finite."""
    sa, sb = a.std(axis=1), b.std(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (np.mean((a - a.mean(axis=1, keepdims=True)) * (b - b.mean(axis=1, keepdims=True)),
                     axis=1) / (sa * sb))
    return np.where((sa == 0.0) | (sb == 0.0) | ~np.isfinite(c), 0.0, c)


def oup_task(n_obs: int, horizon: int) -> TaskSpec:
    """OU process with prior theta ~ U[0,2] x U[-2,2], sigma^2 = 0.1, X0 = 10.

    Summary: grand mean, grand variance, and the lag-1 autocorrelation of
    the pooled (X_t, X_t+1) pairs across the whole dataset.
    """
    if n_obs < 1 or horizon < 2:
        raise ValueError(f"n_obs must be positive and horizon >= 2, got {n_obs}, {horizon}")
    (lo1, hi1), (lo2, hi2) = OUP_BOUNDS

    def support(t):
        if not (lo1 <= t[0] <= hi1 and lo2 <= t[1] <= hi2):
            raise ValueError(f"theta {t.tolist()} outside the prior box {OUP_BOUNDS}")

    def statistic(x):
        lag1 = _lag1_corr_rows(x[:, :-1].ravel()[None], x[:, 1:].ravel()[None])[0]
        return np.array([float(x.mean()), float(x.var()), float(lag1)])

    return _task("oup", {"n_obs": n_obs, "horizon": horizon}, 2, horizon, 3,
                 lambda rng: rng.uniform([lo1, lo2], [hi1, hi2]),
                 lambda t, rngs, rows: _trajectory_datasets(_oup_paths, t, rngs, rows, horizon),
                 statistic, support)


# ---------------------------------------------------------------------------
# Stochastic SIR
# ---------------------------------------------------------------------------

SIR_POPULATION = 10_000.0
SIR_SIGMA = 0.05
SIR_ETA = 0.05
SIR_DT = 1.0
SIR_INIT = (0.999, 0.001)  # S and I at day 0, as population fractions
SIR_RATE_MAX = 0.5


def _sir_paths(theta, noise: np.ndarray):
    """Daily infection counts from an SIR model with a diffusing contact rate.

    The reproduction number follows dR0 = eta (b/g - R0) dt + sigma
    sqrt(|R0|) dW, reflected at zero and started at its reversion level b/g,
    with sigma = SIR_SIGMA, eta = SIR_ETA and dt = SIR_DT read at call time.
    The effective transmission rate is g * R0. Only S and I are tracked:
    the recovered compartment R never feeds back into them or into the
    counts, so it is left implicit. S and I are clipped to [0, 1] after
    every Euler step; counts are population * I_t for t = 1 .. horizon.

    theta is one parameter (2,) for every path or one per path (n_traj, 2).
    noise holds the standard normal increments, shape (horizon, n_traj);
    step t uses row t.
    """
    th = np.asarray(theta, dtype=np.float64)
    beta, gamma = th[..., 0], th[..., 1]
    r0_bar = np.divide(beta, gamma, out=np.zeros_like(beta), where=gamma != 0.0)
    horizon, n_traj = noise.shape
    sigma, eta, dt = SIR_SIGMA, SIR_ETA, SIR_DT
    sqrt_dt = np.sqrt(dt)
    s = np.full(n_traj, SIR_INIT[0])
    i = np.full(n_traj, SIR_INIT[1])
    r0 = np.full(n_traj, r0_bar)
    out = np.empty((n_traj, horizon))
    for t in range(horizon):
        beta_eff = gamma * r0
        flow_si = beta_eff * s * i * dt
        flow_ir = gamma * i * dt
        r0 = np.abs(r0 + eta * (r0_bar - r0) * dt + sigma * np.sqrt(np.abs(r0)) * sqrt_dt * noise[t])
        s = np.clip(s - flow_si, 0.0, 1.0)
        i = np.clip(i + flow_si - flow_ir, 0.0, 1.0)
        out[:, t] = SIR_POPULATION * i
    return out


def _sir_row_summaries(x: np.ndarray) -> np.ndarray:
    """The six SIR statistics of every row of x (n, horizon), as (n, 6).

    Per row: log1p of the mean, the median, the peak and the peak day; log1p
    of the half day; and the lag-1 autocorrelation. The half day is the
    first day whose running total reaches half the row's total, the horizon
    if no day does (possible only with negative counts), and 0 when the
    total is not positive. On non-negative rows the running total never
    falls, so this is the day at which it crosses half the total.
    """
    total = x.sum(axis=1)
    reached = np.cumsum(x, axis=1) >= (0.5 * total)[:, None]
    half_day = np.where(reached.any(axis=1), reached.argmax(axis=1), x.shape[1])
    half_day[~(total > 0.0)] = 0
    return np.stack([
        np.log1p(x.mean(axis=1)),
        np.log1p(np.median(x, axis=1)),
        np.log1p(x.max(axis=1)),
        np.log1p(np.argmax(x, axis=1)),
        np.log1p(half_day),
        _lag1_corr_rows(x[:, :-1], x[:, 1:]),
    ], axis=1)


def sir_task(n_obs: int, horizon: int) -> TaskSpec:
    """Stochastic SIR with prior (beta, gamma) uniform over 0 < gamma < beta < 0.5."""
    if n_obs < 1 or horizon < 2:
        raise ValueError(f"n_obs must be positive and horizon >= 2, got {n_obs}, {horizon}")

    def prior_sample(rng):
        while True:
            beta, gamma = rng.uniform(0.0, SIR_RATE_MAX, size=2)
            if 0.0 < gamma < beta < SIR_RATE_MAX:
                return np.array([beta, gamma])

    def support(t):
        if not (0.0 < t[1] < t[0] < SIR_RATE_MAX):
            raise ValueError(
                f"theta {t.tolist()} violates the prior constraint 0 < gamma < beta < {SIR_RATE_MAX}"
            )

    return _task("sir", {"n_obs": n_obs, "horizon": horizon}, 2, horizon, 6, prior_sample,
                 lambda t, rngs, rows: _trajectory_datasets(_sir_paths, t, rngs, rows, horizon),
                 lambda x: _sir_row_summaries(x).mean(axis=0), support)


# ---------------------------------------------------------------------------
# Task registry and training pools
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskRecord:
    build: Callable  # (**params) -> TaskSpec
    sizes: tuple  # the size params build takes, which are also its config keys
    n_train: int  # default pool size
    horizon: int | None  # default trajectory length, None for a task without one
    contamination: str  # the one contamination kind that applies to it
    engine: str  # "analytic" (the closed form, also the reference posterior) or "mdn"
    frozen: Callable | None  # (sizes, master_seed) -> params drawn once per run, or None


def _factor_loading(sizes: dict, master_seed: int) -> dict:
    """A factor loading, i.i.d. standard normal from its own seed stream."""
    rng = derive_rng(master_seed, "factor-loading")
    return {"loading": rng.standard_normal((sizes["obs_dim"], 2))}


# name: (build, sizes, n_train, horizon, contamination, engine, frozen)
TASKS = {
    "gaussian": TaskRecord(gaussian_task, ("d", "n_obs"), 50_000, None,
                           "row_outliers", "analytic", None),
    "factor": TaskRecord(factor_task, ("obs_dim", "n_obs"), 50_000, None,
                         "row_outliers", "mdn", _factor_loading),
    "oup": TaskRecord(oup_task, ("n_obs", "horizon"), 10_000, 25,
                      "offprior_trajectories", "mdn", None),
    "sir": TaskRecord(sir_task, ("n_obs", "horizon"), 10_000, 365,
                      "weekend_underreporting", "mdn", None),
}


def make_task(name: str, **params) -> TaskSpec:
    """Rebuild a task from its name and params (TaskSpec.params). An unknown
    name, and a param the task lacks or does not take, raise ValueError."""
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}")
    try:
        return TASKS[name].build(**params)
    except TypeError as err:
        raise ValueError(f"bad params for task {name!r}: {err}") from err


def build_training_pool(task: TaskSpec, n_datasets: int, master_seed: int) -> TrainingPool:
    """Simulate (theta_i, dataset_i, summary_i) triples for i < n_datasets.

    Record i draws its prior sample and then its dataset from its own
    stream derive_rng(master_seed, "pool", i). Records are simulated in
    chunks of about _POOL_CHUNK_ELEMS dataset values, one simulate_many call
    per chunk, so the pool is identical however it is chunked.
    """
    if n_datasets < 1:
        raise ValueError(f"n_datasets must be positive, got {n_datasets}")
    thetas = np.empty((n_datasets, task.theta_dim))
    datasets = np.empty((n_datasets, task.n_obs, task.obs_dim))
    summaries = np.empty((n_datasets, task.summary_dim))
    per = max(1, _POOL_CHUNK_ELEMS // (task.n_obs * task.obs_dim))
    for start in range(0, n_datasets, per):
        stop = min(start + per, n_datasets)
        rngs = [derive_rng(master_seed, "pool", i) for i in range(start, stop)]
        for i, rng in enumerate(rngs, start):
            thetas[i] = task.prior_sample(rng)
        datasets[start:stop] = task.simulate_many(thetas[start:stop], rngs)
        for i in range(start, stop):
            summaries[i] = task.summary(datasets[i])
    return TrainingPool(task_name=task.name, params=dict(task.params),
                        master_seed=master_seed, thetas=thetas,
                        datasets=datasets, summaries=summaries)


def save_pool(pool: TrainingPool, path) -> None:
    header = {
        "task": pool.task_name,
        "params": pool.params,
        "n_datasets": int(pool.thetas.shape[0]),
        "n_obs": int(pool.datasets.shape[1]),
        "obs_dim": int(pool.datasets.shape[2]),
        "summary_dim": int(pool.summaries.shape[1]),
        "master_seed": pool.master_seed,
    }
    with replacing(path) as fh:
        np.savez(fh, header=json.dumps(header), thetas=pool.thetas,
                 datasets=pool.datasets, summaries=pool.summaries)


def load_pool(path) -> TrainingPool:
    with np.load(path, allow_pickle=False) as z:
        header = json.loads(str(z["header"]))
        return TrainingPool(
            task_name=header["task"], params=header["params"],
            master_seed=header["master_seed"], thetas=z["thetas"],
            datasets=z["datasets"], summaries=z["summaries"],
        )
