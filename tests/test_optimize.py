import numpy as np
import pytest

from mdsum import optimize
from mdsum.optimize import ObjectiveEval, lbfgs_minimize
from mdsum.util import derive_rng


def quadratic(center, scale=1.0):
    c = np.asarray(center, dtype=np.float64)

    def obj(x):
        d = x - c
        return ObjectiveEval(value=scale * float(d @ d), gradient=2.0 * scale * d)

    return obj


def spd_quadratic(a, c):
    def obj(x):
        d = x - c
        return ObjectiveEval(value=0.5 * float(d @ a @ d), gradient=a @ d)

    return obj


def rosenbrock(x):
    v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return ObjectiveEval(value=v, gradient=g)


def counting(obj):
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += 1
        return obj(x)

    return wrapped, calls


# ---------------------------------------------------------------------------
# L-BFGS
# ---------------------------------------------------------------------------

def test_lbfgs_simple_quadratic_three_iterations(monkeypatch):
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-8)
    x, iters, converged = lbfgs_minimize(quadratic([1.0, 2.0]), np.zeros(2))
    assert converged and iters <= 3
    assert np.allclose(x, [1.0, 2.0], atol=1e-8)


def test_lbfgs_random_spd_quadratics_finite_termination(monkeypatch):
    # on a dim-n quadratic the Wolfe search locates exact line minima, so
    # convergence must arrive within dim + 2 iterations
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-8)
    monkeypatch.setattr(optimize, "MAX_ITERS", 200)
    for trial in range(20):
        rng = derive_rng(30, "quad", trial)
        dim = int(rng.integers(2, 8))
        m = rng.standard_normal((dim, dim))
        a = m @ m.T + 0.1 * np.eye(dim)
        c = rng.standard_normal(dim)
        x, iters, converged = lbfgs_minimize(spd_quadratic(a, c), rng.standard_normal(dim))
        assert converged, f"trial {trial} did not converge"
        assert iters <= dim + 2, f"trial {trial}: {iters} iters for dim {dim}"
        assert np.allclose(x, c, atol=1e-6)


def test_lbfgs_rosenbrock(monkeypatch):
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-8)
    monkeypatch.setattr(optimize, "MAX_ITERS", 100)
    x, iters, converged = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
    assert converged and iters <= 100
    assert np.allclose(x, [1.0, 1.0], atol=1e-5)


def test_lbfgs_zero_gradient_start():
    obj, calls = counting(quadratic([0.5, -0.5]))
    x, iters, converged = lbfgs_minimize(obj, np.array([0.5, -0.5]))
    assert converged and iters == 0
    assert calls["n"] == 1
    assert np.array_equal(x, [0.5, -0.5])


def test_lbfgs_never_increases_from_start(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITERS", 5)
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-14)
    for trial in range(20):
        rng = derive_rng(31, "mono", trial)
        a = rng.standard_normal((4, 4))
        spd = a @ a.T + 0.05 * np.eye(4)
        c = rng.standard_normal(4)
        obj = spd_quadratic(spd, c)
        x0 = 3.0 * rng.standard_normal(4)
        x, _, _ = lbfgs_minimize(obj, x0)
        assert obj(x).value <= obj(x0).value


def test_lbfgs_translation_equivariance():
    rng = derive_rng(32, "shift")
    a = rng.standard_normal((3, 3))
    spd = a @ a.T + 0.2 * np.eye(3)
    c = rng.standard_normal(3)
    shift = rng.standard_normal(3)
    x0 = rng.standard_normal(3)

    base, iters_base, _ = lbfgs_minimize(spd_quadratic(spd, c), x0)

    def shifted(x):
        return spd_quadratic(spd, c)(x - shift)

    moved, iters_moved, _ = lbfgs_minimize(shifted, x0 + shift)
    assert iters_base == iters_moved
    assert np.allclose(moved, base + shift, rtol=0.0, atol=1e-12)


def test_lbfgs_non_finite_start_returns_unconverged():
    def bad(x):
        return ObjectiveEval(value=np.nan, gradient=np.zeros_like(x))

    x, iters, converged = lbfgs_minimize(bad, np.ones(2))
    assert not converged and iters == 0


def test_lbfgs_non_finite_midway_returns_best():
    # objective turns to NaN outside a ball; the minimizer inside is reachable
    def fragile(x):
        if float(x @ x) > 25.0:
            return ObjectiveEval(value=np.nan, gradient=np.full_like(x, np.nan))
        d = x - np.array([1.0, 1.0])
        return ObjectiveEval(value=float(d @ d), gradient=2.0 * d)

    x, _, converged = lbfgs_minimize(fragile, np.array([2.0, 2.0]))
    assert converged
    assert np.allclose(x, [1.0, 1.0], atol=1e-7)


def test_lbfgs_rejects_matrix_start():
    with pytest.raises(ValueError):
        lbfgs_minimize(quadratic([0.0]), np.zeros((2, 2)))


def test_lbfgs_is_deterministic(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITERS", 30)
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-14)

    def run():
        xs = []

        def recording(x):
            xs.append(x.copy())
            return rosenbrock(x)

        lbfgs_minimize(recording, np.array([-1.2, 1.0]))
        return np.vstack(xs)

    assert np.array_equal(run(), run())
