import copy
import pickle

import numpy as np
import pytest

from helpers import mlp_backward, saved_form

from mdsum import nn
from mdsum.nn import (Mlp, adam_init, adam_step, fit_mlp, forward_batch, mlp_forward,
                      mlp_from_payload, mlp_init, mlp_to_payload, mlp_vjp)
from mdsum.util import NumericalError, derive_rng


def _assert_views_of_params(mlp):
    # every weight and bias is a view into params, laid out layer by layer
    arrays = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
    assert all(np.shares_memory(a, mlp.params) for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), mlp.params)


def _zero_mlp(dims):
    mlp = mlp_init(dims, np.random.default_rng(0))
    for w in mlp.weights:
        w[:] = 0.0
    return mlp


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_shapes_and_zero_biases():
    mlp = mlp_init([2, 4, 3], np.random.default_rng(0))
    assert [w.shape for w in mlp.weights] == [(4, 2), (3, 4)]
    assert [b.shape for b in mlp.biases] == [(4,), (3,)]
    assert all(np.all(b == 0.0) for b in mlp.biases)
    _assert_views_of_params(mlp)


def test_init_glorot_bounds():
    # dims [1, 1]: limit sqrt(6/2) = sqrt(3)
    for seed in range(50):
        mlp = mlp_init([1, 1], np.random.default_rng(seed))
        assert abs(mlp.weights[0][0, 0]) < np.sqrt(3.0)
    mlp = mlp_init([6, 16, 8], np.random.default_rng(1))
    for w, (fi, fo) in zip(mlp.weights, [(6, 16), (16, 8)]):
        assert np.all(np.abs(w) <= np.sqrt(6.0 / (fi + fo)))


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        mlp_init([3], np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_init([3, 0, 2], np.random.default_rng(0))


def test_init_is_deterministic():
    a = mlp_init([4, 8, 2], derive_rng(5, "init"))
    b = mlp_init([4, 8, 2], derive_rng(5, "init"))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_network_returns_zero():
    mlp = _zero_mlp([3, 5, 2])
    assert np.all(mlp_forward(mlp, np.ones(3)) == 0.0)


def test_forward_identity_like_net_at_zero():
    mlp = _zero_mlp([1, 1, 1])
    for w in mlp.weights:
        w[:] = 1.0
    assert mlp_forward(mlp, np.zeros(1)) == 0.0


def test_forward_matches_explicit_loop_oracle():
    rng = np.random.default_rng(7)
    mlp = mlp_init([4, 6, 5, 3], rng)
    for b in mlp.biases:
        b[:] = rng.standard_normal(b.shape)
    x = rng.standard_normal(4)

    # oracle: scalar loops, no vectorized shortcuts shared with the module
    h = list(x)
    for layer, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        nxt = []
        for i in range(w.shape[0]):
            pre = b[i]
            for j in range(w.shape[1]):
                pre += w[i, j] * h[j]
            nxt.append(pre if layer == len(mlp.weights) - 1 else np.tanh(pre))
        h = nxt
    assert np.allclose(mlp_forward(mlp, x), h, rtol=0.0, atol=1e-14)


def test_forward_rejects_bad_shapes():
    mlp = mlp_init([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_forward(mlp, np.ones(4))
    with pytest.raises(ValueError):
        forward_batch(mlp, np.ones((2, 4)))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_zero_network_zero_targets():
    mlp = _zero_mlp([2, 3, 2])
    loss, grads = mlp_backward(mlp, np.ones((4, 2)), np.zeros((4, 2)))
    assert loss == 0.0
    assert grads.shape == mlp.params.shape
    assert np.all(grads == 0.0)


def test_backward_duplicate_batch_invariance():
    rng = np.random.default_rng(3)
    mlp = mlp_init([3, 8, 2], rng)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal((5, 2))
    loss1, g1 = mlp_backward(mlp, x, y)
    loss2, g2 = mlp_backward(mlp, np.vstack([x, x]), np.vstack([y, y]))
    assert loss1 == pytest.approx(loss2, rel=1e-15)
    assert np.allclose(g1, g2, rtol=1e-13, atol=1e-15)


def _fd_grad(fn, arr, h=1e-5):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = fn()
        arr[idx] = orig - h
        fm = fn()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def _max_rel_err(analytic, numeric):
    denom = np.maximum(np.abs(numeric), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_backward_matches_finite_differences():
    # 20 random networks and batches; dims up to [6, 16, 16, 8]
    worst = 0.0
    for trial in range(20):
        rng = derive_rng(100, "gradcheck", trial)
        n_hidden = int(rng.integers(1, 3))
        dims = [int(rng.integers(2, 7))] + \
               [int(rng.integers(4, 17)) for _ in range(n_hidden)] + \
               [int(rng.integers(2, 9))]
        mlp = mlp_init(dims, rng)
        for b in mlp.biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        x = rng.standard_normal((5, dims[0]))
        y = rng.standard_normal((5, dims[-1]))
        _, grads = mlp_backward(mlp, x, y)

        def loss():
            return mlp_backward(mlp, x, y)[0]

        # perturbing params moves the weight and bias views with it
        worst = max(worst, _max_rel_err(grads, _fd_grad(loss, mlp.params)))
    assert worst <= 1e-4


def test_input_gradient_matches_finite_differences():
    rng = derive_rng(100, "input-grad")
    mlp = mlp_init([4, 12, 6], rng)
    x = rng.standard_normal(4)
    upstream = rng.standard_normal(6)
    out, vjp = mlp_vjp(mlp, x)
    assert np.array_equal(out, mlp_forward(mlp, x))
    analytic = vjp(upstream)

    def val():
        return float(upstream @ mlp_forward(mlp, x))

    numeric = _fd_grad(val, x)
    assert _max_rel_err(analytic, numeric) <= 1e-6


def test_backward_rejects_shape_mismatch():
    mlp = mlp_init([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_backward(mlp, np.ones((4, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        mlp_backward(mlp, np.ones((4, 3)), np.ones((4, 5)))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_parameters():
    mlp = mlp_init([2, 3], np.random.default_rng(0))
    before = [w.copy() for w in mlp.weights]
    state = adam_init(mlp)
    zero = mlp_backward(mlp, np.zeros((1, 2)), mlp_forward(mlp, np.zeros(2))[None, :])[1]
    adam_step(state, mlp, zero)
    assert state.step == 1
    for w, w0 in zip(mlp.weights, before):
        assert np.array_equal(w, w0)


def test_adam_first_step_is_signed_lr(monkeypatch):
    # with zero moments, m_hat/(sqrt(v_hat)+eps) ~= sign(g)
    monkeypatch.setattr(nn, "LEARNING_RATE", 0.01)
    mlp = _zero_mlp([1, 1])
    state = adam_init(mlp)
    adam_step(state, mlp, np.array([2.5, -0.3]))  # the weight, then the bias
    assert mlp.weights[0][0, 0] == pytest.approx(-0.01, rel=1e-6)
    assert mlp.biases[0][0] == pytest.approx(0.01, rel=1e-6)


def test_adam_matches_scalar_reference_loop(monkeypatch):
    # oracle: textbook Adam recursion on f(w) = (w - 3)^2 written with plain
    # floats; the module must track it step for step
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    w_ref, m, v = 0.0, 0.0, 0.0
    trace = []
    for t in range(1, 201):
        g = 2.0 * (w_ref - 3.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(w_ref)
    assert abs(w_ref - 3.0) < 0.05

    mlp = _zero_mlp([1, 1])
    # keep the bias out of play; the single weight is the decision variable
    monkeypatch.setattr(nn, "LEARNING_RATE", lr)
    state = adam_init(mlp)
    for t in range(200):
        w = mlp.weights[0][0, 0]
        adam_step(state, mlp, np.array([2.0 * (w - 3.0), 0.0]))
        assert mlp.weights[0][0, 0] == pytest.approx(trace[t], rel=0.0, abs=1e-12)


def test_adam_rejects_non_finite_gradient():
    mlp = mlp_init([2, 2], np.random.default_rng(0))
    before = mlp.params.copy()
    state = adam_init(mlp)
    for at in (0, -1):  # a weight of the first layer, a bias of the last
        grads = np.zeros_like(mlp.params)
        grads[at] = np.nan
        with pytest.raises(NumericalError, match="non-finite gradient"):
            adam_step(state, mlp, grads)
    assert state.step == 0 and np.array_equal(mlp.params, before)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _linear_regression_data(rng, n=512):
    x = rng.standard_normal((n, 3))
    w_true = np.array([[1.0, -2.0, 0.5], [0.3, 0.0, 1.2]])
    y = x @ w_true.T + 0.01 * rng.standard_normal((n, 2))
    return x, y


def test_fit_mlp_windowed_loss_is_non_increasing(monkeypatch):
    monkeypatch.setattr(nn, "LEARNING_RATE", 5e-3)
    monkeypatch.setattr(nn, "BATCH_SIZE", 64)
    rng = derive_rng(11, "fit")
    x, y = _linear_regression_data(rng)
    mlp = mlp_init([3, 16, 2], rng)
    report = fit_mlp(mlp, x, y, 60, 60, rng)
    losses = np.asarray(report.step_losses)
    assert losses.size >= 150
    window = 50
    means = [losses[i:i + window].mean() for i in range(0, losses.size - window, window)]
    assert all(b <= a * 1.02 for a, b in zip(means, means[1:]))  # 2% slack for batch noise
    assert means[-1] < 0.1 * means[0]


def test_fit_mlp_early_stopping_restores_best(monkeypatch):
    monkeypatch.setattr(nn, "LEARNING_RATE", 5e-3)
    monkeypatch.setattr(nn, "BATCH_SIZE", 32)
    rng = derive_rng(12, "fit")
    x, y = _linear_regression_data(rng, n=128)
    mlp = mlp_init([3, 8, 2], rng)
    params = mlp.params
    report = fit_mlp(mlp, x, y, 500, 5, rng)
    assert report.epochs < 500  # patience must trigger on a task this small
    out, _ = forward_batch(mlp, x)
    # restored parameters must reproduce a loss consistent with best_val_loss
    assert report.best_val_loss <= min(report.val_losses) + 1e-15
    # restored in place: the same vector, its views still attached
    assert mlp.params is params
    _assert_views_of_params(mlp)


def test_fit_mlp_is_deterministic():
    def run():
        rng = derive_rng(13, "fit")
        x, y = _linear_regression_data(rng, n=256)
        mlp = mlp_init([3, 8, 2], derive_rng(13, "init"))
        fit_mlp(mlp, x, y, 10, 10, derive_rng(13, "train"))
        return mlp.weights + mlp.biases

    a, b = run(), run()
    assert all(np.array_equal(pa, pb) for pa, pb in zip(a, b))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("edit", [
    lambda p: p.update(activation="relu"),
    lambda p: p["biases"].pop(),
    lambda p: p["weights"].__setitem__(0, p["weights"][0].T),
    lambda p: p["biases"].__setitem__(1, p["biases"][1][:1]),
], ids=["activation", "layer_count", "weight_shape", "bias_shape"])
def test_payload_rejects_other_activations_and_mismatched_arrays(edit):
    payload = mlp_to_payload(mlp_init([4, 7, 3], np.random.default_rng(21)))
    edit(payload)
    with pytest.raises(ValueError):
        mlp_from_payload(saved_form(payload))


def test_copies_and_pickles_keep_the_views_attached():
    mlp = mlp_init([4, 7, 3], np.random.default_rng(21))
    for clone in (copy.copy(mlp), copy.deepcopy(mlp), pickle.loads(pickle.dumps(mlp))):
        _assert_views_of_params(clone)
        assert np.array_equal(clone.params, mlp.params)
    assert not np.shares_memory(copy.deepcopy(mlp).params, mlp.params)


def test_payload_round_trip_is_value_exact():
    mlp = mlp_init([4, 7, 3], np.random.default_rng(21))
    clone = mlp_from_payload(saved_form(mlp_to_payload(mlp)))
    assert clone.layer_dims == mlp.layer_dims
    _assert_views_of_params(clone)
    for a, b in zip(mlp.weights + mlp.biases, clone.weights + clone.biases):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)

