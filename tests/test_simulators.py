import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mdsum.simulators import (
    OUP_BOUNDS,
    OUP_X0,
    SIR_POPULATION,
    SIR_RATE_MAX,
    TRAJECTORY_CLIP,
    build_training_pool,
    factor_task,
    gaussian_posterior,
    gaussian_task,
    load_pool,
    make_task,
    oup_task,
    save_pool,
    simulate_oup_trajectories,
    simulate_sir_trajectories,
    sir_task,
)
from mdsum.util import derive_rng


class StubNormals:
    """Generator stand-in returning a fixed value from standard_normal."""

    def __init__(self, value=0.0):
        self.value = value

    def standard_normal(self, n):
        return np.full(n, self.value)


# ---------------------------------------------------------------------------
# Gaussian location
# ---------------------------------------------------------------------------

def test_gaussian_simulate_shape_and_support():
    task = gaussian_task(d=3, n_obs=17)
    rng = derive_rng(40, "g")
    data = task.simulate(np.array([1.0, -1.0, 0.5]), rng)
    assert data.shape == (17, 3)
    with pytest.raises(ValueError):
        task.simulate(np.zeros(2), rng)


def test_gaussian_summary_is_mean_and_permutation_invariant():
    task = gaussian_task(d=2, n_obs=6)
    data = np.arange(12, dtype=np.float64).reshape(6, 2)
    assert np.array_equal(task.summary(data), data.mean(axis=0))
    perm = np.array([3, 0, 5, 1, 4, 2])
    assert np.array_equal(task.summary(data[perm]), task.summary(data))


def test_gaussian_posterior_formula():
    mean, var = gaussian_posterior(np.array([2.0, -4.0]), n_obs=99)
    assert np.allclose(mean, [0.99 * 2.0, 0.99 * -4.0], rtol=0.0, atol=1e-15)
    assert var == pytest.approx(0.01, abs=1e-15)


def test_gaussian_posterior_matches_quadrature():
    # trapezoid integration of prior(theta) * likelihood(theta) on a 1-d grid
    grid = np.linspace(-10.0, 10.0, 200_001)
    for s, n in [(0.3, 1), (2.0, 100), (-1.7, 10)]:
        log_unnorm = -0.5 * grid**2 - 0.5 * n * (grid - s) ** 2
        w = np.exp(log_unnorm - log_unnorm.max())
        z = np.trapezoid(w, grid)
        mean_q = np.trapezoid(grid * w, grid) / z
        var_q = np.trapezoid((grid - mean_q) ** 2 * w, grid) / z
        mean, var = gaussian_posterior(np.array([s]), n_obs=n)
        assert mean[0] == pytest.approx(mean_q, abs=1e-9)
        assert var == pytest.approx(var_q, abs=1e-9)


def test_gaussian_task_validation():
    with pytest.raises(ValueError):
        gaussian_task(d=0)
    with pytest.raises(ValueError):
        gaussian_task(d=2, n_obs=0)
    with pytest.raises(ValueError):
        gaussian_posterior(np.zeros(2), n_obs=0)


# ---------------------------------------------------------------------------
# factor model
# ---------------------------------------------------------------------------

def test_factor_summary_inverts_loading():
    rng = derive_rng(41, "factor")
    task = factor_task(obs_dim=5, n_obs=4, rng=rng)
    a = np.array(task.params["loading"])
    theta = np.array([0.7, -1.2])
    noiseless = np.tile(a @ theta, (4, 1))
    assert np.allclose(task.summary(noiseless), theta, atol=1e-10)


def test_factor_task_reconstructs_from_params():
    rng = derive_rng(41, "factor2")
    task = factor_task(obs_dim=6, n_obs=10, rng=rng)
    again = factor_task(**task.params)
    assert np.array_equal(np.array(again.params["loading"]),
                          np.array(task.params["loading"]))


def test_factor_task_rejects_bad_inputs():
    with pytest.raises(ValueError):
        factor_task(obs_dim=5, n_obs=10)  # no rng, no loading
    with pytest.raises(ValueError):
        factor_task(obs_dim=5, n_obs=10, loading=np.zeros((5, 2)))  # singular
    with pytest.raises(ValueError):
        factor_task(obs_dim=1, n_obs=10, rng=derive_rng(41, "x"))


# ---------------------------------------------------------------------------
# OU process
# ---------------------------------------------------------------------------

def test_oup_noise_free_recursion():
    # with zeroed noise each step is x <- x + th1 * (exp(th2) - x)
    theta = np.array([0.5, 0.3])
    out = simulate_oup_trajectories(theta, n_traj=3, horizon=4, rng=StubNormals(0.0))
    level = np.exp(0.3)
    x = OUP_X0
    expected = []
    for _ in range(4):
        x = x + 0.5 * (level - x)
        expected.append(x)
    assert np.allclose(out, np.tile(expected, (3, 1)), rtol=0.0, atol=1e-12)
    # the fixed starting value is not part of the recorded path
    assert not np.any(out[:, 0] == OUP_X0)


def test_oup_trajectory_clip_keeps_values_finite():
    # off-prior mean reversion > 2 oscillates and blows up geometrically
    out = simulate_oup_trajectories(np.array([3.0, 0.0]), n_traj=1, horizon=120,
                                    rng=StubNormals(0.0))
    assert np.all(np.isfinite(out))
    assert np.abs(out).max() == TRAJECTORY_CLIP


def test_oup_support_check():
    task = oup_task(n_obs=2, horizon=5)
    rng = derive_rng(42, "oup")
    with pytest.raises(ValueError):
        task.simulate(np.array([2.5, 0.0]), rng)
    with pytest.raises(ValueError):
        task.simulate(np.array([1.0, -3.0]), rng)
    # raw variant runs the same dynamics without the box check, one
    # observation row per parameter
    raw = task.simulate_raw(np.array([[2.5, 0.0], [1.0, -3.0]]), rng)
    assert raw.shape == (2, 5)


def test_oup_summary_values():
    task = oup_task(n_obs=2, horizon=3)
    data = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    s = task.summary(data)
    assert s.shape == (3,)
    assert s[0] == pytest.approx(2.0)
    assert s[1] == pytest.approx(np.var(data))
    pairs_a = np.array([1.0, 2.0, 3.0, 2.0])
    pairs_b = np.array([2.0, 3.0, 2.0, 1.0])
    corr = np.corrcoef(pairs_a, pairs_b)[0, 1]
    assert s[2] == pytest.approx(corr, abs=1e-12)


def test_oup_summary_degenerate_data():
    task = oup_task(n_obs=3, horizon=4)
    s = task.summary(np.full((3, 4), 5.0))
    assert s[0] == 5.0 and s[1] == 0.0 and s[2] == 0.0


def test_oup_prior_within_bounds():
    task = oup_task()
    rng = derive_rng(42, "prior")
    draws = np.stack([task.prior_sample(rng) for _ in range(200)])
    (lo1, hi1), (lo2, hi2) = OUP_BOUNDS
    assert np.all((draws[:, 0] >= lo1) & (draws[:, 0] <= hi1))
    assert np.all((draws[:, 1] >= lo2) & (draws[:, 1] <= hi2))


def test_oup_task_validation():
    with pytest.raises(ValueError):
        oup_task(n_obs=0)
    with pytest.raises(ValueError):
        oup_task(horizon=1)
    with pytest.raises(ValueError):
        oup_task(n_obs=2, horizon=5).summary(np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# stochastic SIR
# ---------------------------------------------------------------------------

def test_sir_noise_free_conserves_population():
    theta = np.array([0.4, 0.1])
    out, (s, i, r), pre_clip = simulate_sir_trajectories(
        theta, n_traj=2, horizon=200, rng=StubNormals(0.0),
        sigma=0.0, eta=0.0, return_compartments=True)
    assert np.allclose(pre_clip, 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(s + i + r, 1.0, rtol=0.0, atol=1e-12)
    assert np.all(out >= 0.0) and np.all(out <= SIR_POPULATION)


def test_sir_noise_free_converges_to_ode():
    # with sigma = eta = 0 the contact rate is constant and the model is the
    # classic SIR ODE; Euler output must approach a high-accuracy solver as
    # the step shrinks
    beta, gamma = 0.4, 0.1
    t_end = 5.0

    def rhs(_, y):
        s, i = y
        return [-beta * s * i, beta * s * i - gamma * i]

    sol = solve_ivp(rhs, (0.0, t_end), [0.999, 0.001], rtol=1e-10, atol=1e-12)
    i_true = sol.y[1, -1]

    errs = []
    for dt in (0.01, 0.001):
        steps = int(round(t_end / dt))
        out = simulate_sir_trajectories(np.array([beta, gamma]), n_traj=1,
                                        horizon=steps, rng=StubNormals(0.0),
                                        sigma=0.0, eta=0.0, dt=dt)
        errs.append(abs(out[0, -1] / SIR_POPULATION - i_true))
    assert errs[1] < errs[0]
    assert errs[0] < 1e-3


def test_sir_support_check_and_prior():
    task = sir_task(n_obs=2, horizon=10)
    rng = derive_rng(43, "sir")
    with pytest.raises(ValueError):
        task.simulate(np.array([0.1, 0.2]), rng)  # gamma > beta
    with pytest.raises(ValueError):
        task.simulate(np.array([0.6, 0.1]), rng)  # beta over the cap
    draws = np.stack([task.prior_sample(rng) for _ in range(200)])
    assert np.all((0.0 < draws[:, 1]) & (draws[:, 1] < draws[:, 0])
                  & (draws[:, 0] < SIR_RATE_MAX))


def test_sir_summary_shape_and_determinism():
    task = sir_task(n_obs=3, horizon=30)
    data = task.simulate(np.array([0.3, 0.1]), derive_rng(43, "sim"))
    s = task.summary(data)
    assert s.shape == (6,)
    assert np.array_equal(s, task.summary(data.copy()))


# ---------------------------------------------------------------------------
# batched raw simulation
# ---------------------------------------------------------------------------

def one_row_reference(task, theta, rng):
    """One observation row from one parameter, as a loop would draw it."""
    if task.name == "gaussian":
        return theta + rng.standard_normal((1, task.obs_dim))[0]
    if task.name == "factor":
        return np.asarray(task.params["loading"]) @ theta + rng.standard_normal(task.obs_dim)
    if task.name == "oup":
        return simulate_oup_trajectories(theta, 1, task.obs_dim, rng)[0]
    return simulate_sir_trajectories(theta, 1, task.obs_dim, rng)[0]


@pytest.mark.parametrize("task", [
    gaussian_task(d=3, n_obs=5),
    factor_task(obs_dim=7, n_obs=5, rng=derive_rng(45, "loading")),
    oup_task(n_obs=5, horizon=25),
    sir_task(n_obs=5, horizon=120),
], ids=lambda t: t.name)
def test_simulate_raw_matches_single_row_loop(task):
    rng = derive_rng(45, "thetas", task.name)
    on_prior = np.stack([task.prior_sample(rng) for _ in range(20)])
    # off the prior: negative, zero and outsized parameters
    off_prior = np.array([[-0.5, 3.0], [2.5, -2.5], [0.0, 0.0], [4.0, 0.1]])
    if task.theta_dim != 2:
        off_prior = np.repeat(off_prior, 2, axis=1)[:, :task.theta_dim]
    thetas = np.vstack([on_prior, off_prior])
    batched = task.simulate_raw(thetas, derive_rng(45, "draws", task.name))
    ref_rng = derive_rng(45, "draws", task.name)
    reference = np.stack([one_row_reference(task, t, ref_rng) for t in thetas])
    assert batched.shape == (thetas.shape[0], task.obs_dim)
    assert np.array_equal(batched, reference)
    with pytest.raises(ValueError):
        task.simulate_raw(thetas[0], ref_rng)  # one parameter, not a batch


# ---------------------------------------------------------------------------
# registry and pools
# ---------------------------------------------------------------------------

def test_make_task_round_trips():
    for task in (gaussian_task(d=3, n_obs=7),
                 oup_task(n_obs=4, horizon=8),
                 sir_task(n_obs=2, horizon=12),
                 factor_task(obs_dim=4, n_obs=5, rng=derive_rng(44, "f"))):
        rebuilt = make_task(task.name, **task.params)
        assert rebuilt.name == task.name
        assert rebuilt.summary_dim == task.summary_dim
        assert rebuilt.obs_dim == task.obs_dim
    with pytest.raises(ValueError):
        make_task("unknown")


def test_training_pool_shapes_and_determinism():
    task = gaussian_task(d=2, n_obs=5)
    pool = build_training_pool(task, n_datasets=8, master_seed=77)
    assert pool.thetas.shape == (8, 2)
    assert pool.datasets.shape == (8, 5, 2)
    assert pool.summaries.shape == (8, 2)
    again = build_training_pool(task, n_datasets=8, master_seed=77)
    assert np.array_equal(pool.datasets, again.datasets)
    assert not np.array_equal(
        pool.datasets, build_training_pool(task, 8, master_seed=78).datasets)


def test_training_pool_is_prefix_stable():
    # record i depends only on (master_seed, i), not on the pool size
    task = gaussian_task(d=2, n_obs=5)
    small = build_training_pool(task, n_datasets=3, master_seed=9)
    large = build_training_pool(task, n_datasets=6, master_seed=9)
    assert np.array_equal(small.datasets, large.datasets[:3])
    assert np.array_equal(small.thetas, large.thetas[:3])


def test_pool_save_load_round_trip(tmp_path):
    task = oup_task(n_obs=3, horizon=6)
    pool = build_training_pool(task, n_datasets=4, master_seed=5)
    path = tmp_path / "pool.npz"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert loaded.task_name == "oup"
    assert loaded.master_seed == 5
    assert loaded.params == pool.params
    assert np.array_equal(loaded.thetas, pool.thetas)
    assert np.array_equal(loaded.datasets, pool.datasets)
    assert np.array_equal(loaded.summaries, pool.summaries)
