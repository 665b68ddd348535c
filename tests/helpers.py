"""Shared oracles and fixed models for the test suite.

The oracles are independent routes to quantities the library computes with
learned components, kept deliberately simple so they can be trusted.
"""

import numpy as np

from mdsum.inference import DecoderEmbedding, HoldoutRecords
from mdsum.kernels import FeatureMap
from mdsum.nn import mlp_init


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
    mlp.biases[1] = rng.standard_normal(6)
    dec = DecoderEmbedding(feature_map=fm, regressor=mlp,
                           summary_mean=np.array([0.5, -1.0]),
                           summary_std=np.array([2.0, 0.25]), threshold=threshold,
                           task_name="gaussian", task_params={"d": 2, "n_obs": 20})
    holdout = HoldoutRecords(summaries=rng.standard_normal((4, 2)),
                             embeddings=rng.standard_normal((4, 6)))
    return dec, holdout
