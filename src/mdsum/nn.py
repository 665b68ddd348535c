"""Dense feed-forward networks with hand-written backprop and Adam.

The networks here are small (a few hundred units), fully-connected, tanh in
the hidden layers and identity at the output, operating on float64 arrays.
Gradients are exact analytic derivatives; the optimizer callers rely on
them matching finite differences to high precision, so nothing in this
module is allowed to approximate.

Weights for layer l have shape (fan_out, fan_in) and act on row batches as
``X @ W.T + b``. All of a network's parameters sit in one float64 vector,
``Mlp.params``: each layer's weight (row-major), then its bias. ``weights``
and ``biases`` are views into it (``_layout``), so write into them; a
rebound entry is detached. Backprop returns one gradient in that layout,
and Adam updates the whole vector at once. Every forward pass goes through
``forward_batch``; ``mlp_vjp`` reuses that one pass's activations for the
input gradient, so a value-and-gradient query costs a single forward.
Adam's constants and the validation split, the learning rate and the batch
size are fixed (ADAM_*, VAL_FRACTION, LEARNING_RATE, BATCH_SIZE). Networks
persist only as payloads inside the decoder and engine artifacts of
``inference``; a payload loads only if it names the activation "tanh" and
matches its layer_dims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .util import NumericalError, check_shape, decode_floats, reads_payload

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEARNING_RATE = 5e-4
BATCH_SIZE = 128  # rows per fit_mlp step
VAL_FRACTION = 0.10  # share of fit_mlp's rows held aside for early stopping


def _layout(dims, flat: np.ndarray):
    """Views of a parameter-sized vector as each layer's (fan_out, fan_in)
    weight and (fan_out,) bias: (weights, biases)."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


@dataclass
class Mlp:
    layer_dims: tuple
    params: np.ndarray  # every weight and bias, layer by layer (_layout)

    def __post_init__(self):
        self.weights, self.biases = _layout(self.layer_dims, self.params)

    def __getstate__(self):  # a copy or an unpickled network rebuilds its views
        return self.layer_dims, self.params

    def __setstate__(self, state):
        self.__init__(*state)


@dataclass
class AdamState:
    step: int
    m: np.ndarray  # first and second moments, laid out as Mlp.params
    v: np.ndarray


@dataclass
class TrainReport:
    epochs: int
    best_val_loss: float
    step_losses: list
    val_losses: list


def _zeros(dims: tuple) -> Mlp:
    """An all-zero network; ValueError unless dims are two or more positive ints."""
    if len(dims) < 2 or not all(isinstance(d, int) and d > 0 for d in dims):
        raise ValueError(f"need two or more positive integer layer dims, got {dims}")
    return Mlp(dims, np.zeros(sum(fo * (fi + 1) for fi, fo in zip(dims[:-1], dims[1:]))))


def mlp_init(layer_dims, rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases.

    The limit a = sqrt(6 / (fan_in + fan_out)) keeps tanh pre-activations
    in their linear regime at the start of training.
    """
    mlp = _zeros(tuple(int(d) for d in layer_dims))
    for w in mlp.weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return mlp


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


def backward_from_output_grad(mlp: Mlp, activations: list, grad_out: np.ndarray) -> np.ndarray:
    """Backprop an arbitrary (B, d_out) output gradient to the parameters:
    one flat gradient, laid out as mlp.params."""
    grad = np.empty_like(mlp.params)
    d_weights, d_biases = _layout(mlp.layer_dims, grad)
    g = grad_out
    for l in range(len(mlp.weights) - 1, -1, -1):
        np.matmul(g.T, activations[l], out=d_weights[l])
        g.sum(axis=0, out=d_biases[l])
        if l > 0:
            # activations[l] for l >= 1 is tanh output, so tanh' = 1 - h^2
            g = (g @ mlp.weights[l]) * (1.0 - activations[l] ** 2)
    return grad


def mse_loss_grad(outputs: np.ndarray, targets: np.ndarray):
    """Mean over batch rows of the squared Euclidean error, with gradient."""
    diff = outputs - targets
    loss = float(np.sum(diff * diff) / outputs.shape[0])
    return loss, (2.0 / outputs.shape[0]) * diff


def adam_init(mlp: Mlp) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(mlp.params), v=np.zeros_like(mlp.params))


def adam_step(state: AdamState, mlp: Mlp, grad: np.ndarray) -> None:
    """One Adam update with bias correction of the whole parameter vector,
    from a flat gradient. Mutates mlp and state in place."""
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient")
    state.step += 1
    t = state.step
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - ADAM_BETA1 ** t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** t)
    mlp.params -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def fit_mlp(mlp: Mlp, inputs, targets, max_epochs: int, patience: int,
            rng: np.random.Generator, loss_grad: Callable = mse_loss_grad) -> TrainReport:
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
    best_params = mlp.params.copy()
    stale = 0
    step_losses: list = []
    val_losses: list = []

    for epoch in range(max_epochs):
        order = rng.permutation(n_tr)
        for start in range(0, n_tr, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            out, acts = forward_batch(mlp, x_tr[idx])
            loss, grad_out = loss_grad(out, y_tr[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite training loss at epoch {epoch}")
            adam_step(adam, mlp, backward_from_output_grad(mlp, acts, grad_out))
            step_losses.append(loss)
        val_out, _ = forward_batch(mlp, x_val)
        val_loss, _ = loss_grad(val_out, y_val)
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = mlp.params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    mlp.params[...] = best_params
    return TrainReport(epochs=len(val_losses), best_val_loss=float(best_val),
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
    mlp = _zeros(tuple(payload["layer_dims"]))
    n_layers = len(mlp.weights)
    if len(payload["weights"]) != n_layers or len(payload["biases"]) != n_layers:
        raise ValueError(f"layer_dims {mlp.layer_dims} need {n_layers} weights and biases, "
                         f"got {len(payload['weights'])} and {len(payload['biases'])}")
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        w[...] = check_shape(f"weight {l}", decode_floats(payload["weights"][l]), w.shape)
        b[...] = check_shape(f"bias {l}", decode_floats(payload["biases"][l]), b.shape)
    return mlp
