"""Shared oracles, fixed models and test-only probes for the test suite.

The oracles are independent routes to quantities the library computes with
learned components, kept deliberately simple so they can be trusted. The
probes (mlp_backward, mdn_log_prob, posterior_moments,
posterior_kl_analytic) read the library's models through the same code
paths the library uses, but nothing in the library needs them. The
simulation references (reference_pool, sir_trajectory_summary,
oup_summary) are the per-record and per-row loops and the scalar lag-1
correlation that the batched pool and the row-wise summaries must
reproduce bit for bit; sir_reference_paths is the per-path S, I and R
Euler loop that the two-compartment SIR paths must match bit for bit.
hex_encoded is the per-value float.hex reference that saved model files
must match byte for byte, and saved_form reads a payload back as a saved
file holds it. fill_the_disk makes a util.replacing write fail half-way.
"""

import errno
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from mdsum import simulators, util
from mdsum.inference import (AnalyticGaussianEngine, DecoderEmbedding, HoldoutRecords,
                             MdnEngine, PosteriorEngine, mdn_parameters)
from mdsum.kernels import FeatureMap
from mdsum.nn import Mlp, backward_from_output_grad, forward_batch, mlp_init, mse_loss_grad
from mdsum.simulators import (_sir_paths, gaussian_posterior, gaussian_task,
                              simulate_oup_trajectories)
from mdsum.util import NumericalError, derive_rng, save_payload


def closed_form_embedding(fm, s, n_obs):
    """Exact conditional mean embedding for the Gaussian location task.

    Conditional on the sample mean s of n_obs unit-variance Gaussian rows,
    one row is N(s, (1 - 1/n) I), and the expectation of cos(w.x + b) under
    that law is cos(w.s + b) * exp(-0.5 * (1 - 1/n) * ||w||^2).
    """
    s = np.asarray(s, dtype=np.float64)
    w = fm.frequencies
    damp = np.exp(-0.5 * (1.0 - 1.0 / n_obs) * (w * w).sum(axis=1))
    return np.sqrt(2.0 / fm.n_features) * np.cos(w @ s + fm.phases) * damp


def hex_encoded(a) -> dict:
    """An array as saved model files hold it: its shape and the float.hex
    string of each value in C order, one Python call per value."""
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "hex": [float.hex(v) for v in a.ravel().tolist()]}


def saved_form(payload):
    """A payload as a model file holds it: written by save_payload and read
    back with json.load."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        save_payload(payload, path)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


class _HalfWriter:
    """A binary file that takes half of its first write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def fill_the_disk(monkeypatch, name):
    """Make util.replacing's write of the file called name stop half-way
    with ENOSPC, as on a full disk; other files are written as usual."""
    def full_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _HalfWriter(fh) if Path(path).name.startswith(f".{name}.") else fh

    monkeypatch.setattr(util, "open", full_open, raising=False)


def fd_gradient(fn, x, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def fixed_decoder(threshold=0.75):
    """A small untrained decoder and its holdout, built from fixed arrays.

    The first bias layer stays all zeros (as mlp_init leaves it), so tests
    can flip a zero's sign bit.
    """
    rng = np.random.default_rng(31)
    fm = FeatureMap(dim=2, n_features=6, bandwidth=1.25,
                    frequencies=rng.standard_normal((6, 2)),
                    phases=rng.uniform(0.0, 2.0 * np.pi, size=6))
    mlp = mlp_init([2, 5, 6], rng)
    mlp.biases[1][...] = rng.standard_normal(6)
    dec = DecoderEmbedding(feature_map=fm, regressor=mlp,
                           summary_mean=np.array([0.5, -1.0]),
                           summary_std=np.array([2.0, 0.25]),
                           task=gaussian_task(d=2, n_obs=20), threshold=threshold)
    holdout = HoldoutRecords(summaries=rng.standard_normal((4, 2)),
                             embeddings=rng.standard_normal((4, 6)))
    return dec, holdout


def mlp_backward(mlp: Mlp, inputs, targets):
    """MSE loss and exact parameter gradients on a batch.

    Returns (loss, gradient), the gradient flat and laid out as mlp.params.
    Loss is the batch mean of the squared Euclidean error between network
    outputs and targets.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"batch size mismatch: {x.shape[0]} inputs vs {y.shape[0]} targets")
    if y.ndim != 2 or y.shape[1] != mlp.layer_dims[-1]:
        raise ValueError(f"expected targets of shape (B, {mlp.layer_dims[-1]}), got {y.shape}")
    outputs, acts = forward_batch(mlp, x)
    loss, grad_out = mse_loss_grad(outputs, y)
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss in mlp_backward")
    return loss, backward_from_output_grad(mlp, acts, grad_out)


def mdn_log_prob(engine: MdnEngine, s, thetas) -> np.ndarray:
    """log q(theta | s) for each row of thetas."""
    w, means, sig = mdn_parameters(engine, s)
    t = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    diff = t[:, None, :] - means[None, :, :]
    comp = -0.5 * np.sum((diff / sig[None, :, :]) ** 2, axis=2) \
        - np.sum(np.log(sig), axis=1)[None, :] \
        - 0.5 * engine.theta_dim * np.log(2.0 * np.pi)
    joint = np.log(w)[None, :] + comp
    top = joint.max(axis=1, keepdims=True)
    return top[:, 0] + np.log(np.exp(joint - top).sum(axis=1))


def posterior_moments(engine: PosteriorEngine, s):
    """Mean and per-dimension variance of q(theta | s)."""
    if isinstance(engine, AnalyticGaussianEngine):
        mean, var = gaussian_posterior(np.asarray(s, dtype=np.float64), engine.n_obs)
        return mean, np.full(engine.dim, var)
    if isinstance(engine, MdnEngine):
        w, means, sig = mdn_parameters(engine, s)
        mean = w @ means
        second = w @ (sig * sig + means * means)
        return mean, second - mean * mean
    raise TypeError(f"unknown engine type {type(engine).__name__}")


def posterior_kl_analytic(engine_a: PosteriorEngine, engine_b: PosteriorEngine,
                          s_a, s_b) -> float:
    """Closed-form KL( q_a(. | s_a) || q_b(. | s_b) ) for analytic engines."""
    if not (isinstance(engine_a, AnalyticGaussianEngine)
            and isinstance(engine_b, AnalyticGaussianEngine)):
        raise TypeError("closed-form KL requires analytic Gaussian engines")
    if engine_a.dim != engine_b.dim:
        raise ValueError(f"dimension mismatch: {engine_a.dim} vs {engine_b.dim}")
    d = engine_a.dim
    ma, va = gaussian_posterior(np.asarray(s_a, dtype=np.float64), engine_a.n_obs)
    mb, vb = gaussian_posterior(np.asarray(s_b, dtype=np.float64), engine_b.n_obs)
    dm = mb - ma
    return float(0.5 * (d * va / vb + (dm @ dm) / vb - d + d * np.log(vb / va)))


# ---------------------------------------------------------------------------
# simulation references
# ---------------------------------------------------------------------------

def simulate_sir_trajectories(theta, n_traj, horizon, rng):
    """n_traj SIR paths from one parameter, noise drawn step-major."""
    return _sir_paths(theta, rng.standard_normal((horizon, n_traj)))


def sir_reference_paths(theta, noise):
    """(counts, pre-clip S + I + R) of the SIR Euler loop, one path at a
    time in Python floats, tracking the recovered compartment R as well.

    Each step takes _sir_paths's operations in its order, so the counts
    match it bit for bit; the totals are S + I + R of every step before
    the clip to [0, 1]. theta is (2,) or (n_traj, 2); noise is
    (horizon, n_traj). The SIR_* constants are read at call time.
    """
    horizon, n_traj = noise.shape
    thetas = np.broadcast_to(np.asarray(theta, dtype=np.float64), (n_traj, 2)).tolist()
    sigma, eta, dt = simulators.SIR_SIGMA, simulators.SIR_ETA, simulators.SIR_DT
    counts = np.empty((n_traj, horizon))
    totals = np.empty((n_traj, horizon))
    for p, (beta, gamma) in enumerate(thetas):
        r0_bar = beta / gamma if gamma != 0.0 else 0.0
        s, i = simulators.SIR_INIT
        r, r0 = 0.0, r0_bar
        for t, z in enumerate(noise[:, p].tolist()):
            flow_si = gamma * r0 * s * i * dt
            flow_ir = gamma * i * dt
            r0 = abs(r0 + eta * (r0_bar - r0) * dt
                     + sigma * math.sqrt(abs(r0)) * math.sqrt(dt) * z)
            s, i, r = s - flow_si, i + flow_si - flow_ir, r + flow_ir
            totals[p, t] = s + i + r
            s, i, r = (min(max(v, 0.0), 1.0) for v in (s, i, r))
            counts[p, t] = simulators.SIR_POPULATION * i
    return counts, totals


def lag1_corr(a, b) -> float:
    """Pearson correlation of two vectors, 0 when either side is constant
    or the value is not finite."""
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    c = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
    return c if np.isfinite(c) else 0.0


def sir_trajectory_summary(x) -> np.ndarray:
    """The six SIR statistics of one trajectory, one row at a time; its
    half day is searchsorted on the running total."""
    total = x.sum()
    if total > 0.0:
        half_day = int(np.searchsorted(np.cumsum(x), 0.5 * total))
    else:
        half_day = 0
    return np.array([
        np.log1p(x.mean()),
        np.log1p(np.median(x)),
        np.log1p(x.max()),
        np.log1p(np.argmax(x)),
        np.log1p(half_day),
        lag1_corr(x[:-1], x[1:]),
    ])


def reference_dataset(task, theta, rng):
    """One dataset from one parameter, drawn as a single-dataset simulator
    draws it: the (n_obs, obs_dim) or step-major (horizon, n_obs) noise
    block from rng, with theta a scalar parameter of every path."""
    if task.name == "gaussian":
        return theta + rng.standard_normal((task.n_obs, task.obs_dim))
    if task.name == "factor":
        a = np.asarray(task.params["loading"])
        return a @ theta + rng.standard_normal((task.n_obs, task.obs_dim))
    if task.name == "oup":
        return simulate_oup_trajectories(theta, task.n_obs, task.obs_dim, rng)
    return simulate_sir_trajectories(theta, task.n_obs, task.obs_dim, rng)


def oup_summary(x) -> np.ndarray:
    """The OU summary of a dataset, its lag-1 correlation taken by
    lag1_corr on the pooled pairs."""
    return np.array([float(x.mean()), float(x.var()),
                     lag1_corr(x[:, :-1].ravel(), x[:, 1:].ravel())])


def reference_summary(task, data):
    if task.name == "sir":
        return np.stack([sir_trajectory_summary(row) for row in data]).mean(axis=0)
    if task.name == "oup":
        return oup_summary(data)
    return task.summary(data)


def reference_pool(task, n_datasets, master_seed):
    """(thetas, datasets, summaries) of a pool, one record at a time: record
    i draws its prior sample and then its dataset from
    derive_rng(master_seed, "pool", i)."""
    thetas, datasets, summaries = [], [], []
    for i in range(n_datasets):
        rng = derive_rng(master_seed, "pool", i)
        theta = task.prior_sample(rng)
        data = reference_dataset(task, theta, rng)
        thetas.append(theta)
        datasets.append(data)
        summaries.append(reference_summary(task, data))
    return np.stack(thetas), np.stack(datasets), np.stack(summaries)
