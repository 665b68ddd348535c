"""Dense feed-forward networks with hand-written backprop and Adam.

The networks here are small (a few hundred units), fully-connected, tanh in
the hidden layers and identity at the output, operating on float64 arrays.
Gradients are exact analytic derivatives; the optimizer callers rely on
them matching finite differences to high precision, so nothing in this
module is allowed to approximate.

Weights for layer l have shape (fan_out, fan_in) and act on row batches as
``X @ W.T + b``. Every forward pass goes through ``forward_batch``;
``mlp_vjp`` reuses that one pass's activations for the input gradient, so a
value-and-gradient query costs a single forward. Adam's constants and the
validation split, the learning rate and the batch size are fixed (ADAM_*,
VAL_FRACTION, LEARNING_RATE, BATCH_SIZE). Networks persist only as
payloads inside the decoder and engine artifacts of ``inference``; a payload
loads only if it names the activation "tanh" and matches its layer_dims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .util import NumericalError, check_shape, decode_floats, reads_payload

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEARNING_RATE = 5e-4
BATCH_SIZE = 128  # rows per fit_mlp step
VAL_FRACTION = 0.10  # share of fit_mlp's rows held aside for early stopping


@dataclass
class Mlp:
    layer_dims: tuple
    weights: list  # list of (fan_out, fan_in) float64 arrays
    biases: list  # list of (fan_out,) float64 arrays


@dataclass
class Gradients:
    weights: list
    biases: list


@dataclass
class AdamState:
    step: int
    m_weights: list
    v_weights: list
    m_biases: list
    v_biases: list


@dataclass
class TrainReport:
    epochs: int
    best_val_loss: float
    step_losses: list
    val_losses: list


def mlp_init(layer_dims, rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases.

    The limit a = sqrt(6 / (fan_in + fan_out)) keeps tanh pre-activations
    in their linear regime at the start of training.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    if any(d <= 0 for d in dims):
        raise ValueError(f"all layer dims must be positive, got {dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(layer_dims=dims, weights=weights, biases=biases)


def forward_batch(mlp: Mlp, inputs: np.ndarray):
    """Forward pass on a (B, d_in) batch.

    Returns (outputs, activations) where activations[l] is the
    post-activation output of layer l, with activations[0] the input batch.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.layer_dims[0]:
        raise ValueError(
            f"expected batch of shape (B, {mlp.layer_dims[0]}), got {x.shape}"
        )
    acts = [x]
    h = x
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        pre = h @ w.T + b
        h = pre if l == last else np.tanh(pre)
        acts.append(h)
    return h, acts


def mlp_forward(mlp: Mlp, x) -> np.ndarray:
    """Forward pass on a single input vector."""
    return mlp_vjp(mlp, x)[0]


def mlp_vjp(mlp: Mlp, x):
    """Forward pass on a single input vector, with its vector-Jacobian product.

    Returns (output, vjp): vjp(upstream) is the gradient of upstream . output
    with respect to x, backpropagated through the activations of this one
    forward pass.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != mlp.layer_dims[0]:
        raise ValueError(f"expected vector of length {mlp.layer_dims[0]}, got shape {v.shape}")
    out, acts = forward_batch(mlp, v[None, :])

    def vjp(upstream) -> np.ndarray:
        g = np.asarray(upstream, dtype=np.float64)[None, :]
        for l in range(len(mlp.weights) - 1, 0, -1):
            g = (g @ mlp.weights[l]) * (1.0 - acts[l] ** 2)
        return (g @ mlp.weights[0])[0]

    return out[0], vjp


def backward_from_output_grad(mlp: Mlp, activations: list, grad_out: np.ndarray) -> Gradients:
    """Backprop an arbitrary (B, d_out) output gradient to parameter gradients."""
    g = grad_out
    n_layers = len(mlp.weights)
    d_weights = [None] * n_layers
    d_biases = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        h_prev = activations[l]
        d_weights[l] = g.T @ h_prev
        d_biases[l] = g.sum(axis=0)
        if l > 0:
            # activations[l] for l >= 1 is tanh output, so tanh' = 1 - h^2
            g = (g @ mlp.weights[l]) * (1.0 - activations[l] ** 2)
    return Gradients(weights=d_weights, biases=d_biases)


def mse_loss_grad(outputs: np.ndarray, targets: np.ndarray):
    """Mean over batch rows of the squared Euclidean error, with gradient."""
    diff = outputs - targets
    loss = float(np.sum(diff * diff) / outputs.shape[0])
    return loss, (2.0 / outputs.shape[0]) * diff


def adam_init(mlp: Mlp) -> AdamState:
    return AdamState(
        step=0,
        m_weights=[np.zeros_like(w) for w in mlp.weights],
        v_weights=[np.zeros_like(w) for w in mlp.weights],
        m_biases=[np.zeros_like(b) for b in mlp.biases],
        v_biases=[np.zeros_like(b) for b in mlp.biases],
    )


def _adam_update(p, g, m, v, t: int):
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    p -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def adam_step(state: AdamState, mlp: Mlp, grads: Gradients):
    """One Adam update with bias correction. Mutates mlp and state in place."""
    for i, (gw, gb) in enumerate(zip(grads.weights, grads.biases)):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise NumericalError(f"non-finite gradient in layer {i}")
    state.step += 1
    t = state.step
    for i in range(len(mlp.weights)):
        _adam_update(mlp.weights[i], grads.weights[i], state.m_weights[i],
                     state.v_weights[i], t)
        _adam_update(mlp.biases[i], grads.biases[i], state.m_biases[i],
                     state.v_biases[i], t)
    return mlp, state


def _snapshot(mlp: Mlp):
    return [w.copy() for w in mlp.weights], [b.copy() for b in mlp.biases]


def fit_mlp(mlp: Mlp, inputs, targets, max_epochs: int, patience: int,
            rng: np.random.Generator, loss_grad: Optional[Callable] = None) -> TrainReport:
    """Mini-batch Adam training with early stopping.

    A VAL_FRACTION split is held aside; training stops when the validation
    loss has not improved for `patience` epochs (or at max_epochs), and the
    best-validation parameters are restored. loss_grad(outputs, targets)
    must return (scalar loss, d loss / d outputs); the default is MSE.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")
    if loss_grad is None:
        loss_grad = mse_loss_grad

    n_val = max(1, int(round(VAL_FRACTION * n)))
    if n_val >= n:
        raise ValueError(f"validation split leaves no training rows (n={n})")
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_val, y_val = x[val_idx], y[val_idx]
    x_tr, y_tr = x[train_idx], y[train_idx]
    n_tr = x_tr.shape[0]

    adam = adam_init(mlp)
    best_val = np.inf
    best_params = _snapshot(mlp)
    stale = 0
    step_losses: list = []
    val_losses: list = []
    epochs_run = 0

    for epoch in range(max_epochs):
        order = rng.permutation(n_tr)
        for start in range(0, n_tr, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            out, acts = forward_batch(mlp, x_tr[idx])
            loss, grad_out = loss_grad(out, y_tr[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite training loss at epoch {epoch}")
            grads = backward_from_output_grad(mlp, acts, grad_out)
            adam_step(adam, mlp, grads)
            step_losses.append(loss)
        val_out, _ = forward_batch(mlp, x_val)
        val_loss, _ = loss_grad(val_out, y_val)
        val_losses.append(val_loss)
        epochs_run = epoch + 1
        if val_loss < best_val:
            best_val = val_loss
            best_params = _snapshot(mlp)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    mlp.weights, mlp.biases = best_params
    return TrainReport(epochs=epochs_run, best_val_loss=float(best_val),
                       step_losses=step_losses, val_losses=val_losses)


def mlp_to_payload(mlp: Mlp) -> dict:
    return {
        "kind": "mlp",
        "layer_dims": list(mlp.layer_dims),
        "activation": "tanh",
        "weights": list(mlp.weights),
        "biases": list(mlp.biases),
    }


@reads_payload
def mlp_from_payload(payload: dict) -> Mlp:
    """Rebuild a network, checking every array against layer_dims."""
    if payload.get("kind") != "mlp":
        raise ValueError(f"not an mlp payload: kind={payload.get('kind')!r}")
    if payload["activation"] != "tanh":
        raise ValueError(f"unknown activation {payload['activation']!r}")
    dims = tuple(payload["layer_dims"])
    n_layers = len(dims) - 1
    if len(payload["weights"]) != n_layers or len(payload["biases"]) != n_layers:
        raise ValueError(f"layer_dims {dims} need {n_layers} weights and biases, got "
                         f"{len(payload['weights'])} and {len(payload['biases'])}")
    weights, biases = [], []
    for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        weights.append(check_shape(f"weight {l}", decode_floats(payload["weights"][l]),
                                   (fan_out, fan_in)))
        biases.append(check_shape(f"bias {l}", decode_floats(payload["biases"][l]),
                                  (fan_out,)))
    return Mlp(layer_dims=dims, weights=weights, biases=biases)
