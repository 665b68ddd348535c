import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import (oup_summary, reference_dataset, reference_pool,
                     simulate_sir_trajectories, sir_reference_paths, sir_trajectory_summary)
from mdsum import simulators
from mdsum.contamination import contaminate_sir
from mdsum.harness import build_task, config_from_dict
from mdsum.simulators import (
    OUP_BOUNDS,
    OUP_X0,
    SIR_POPULATION,
    SIR_RATE_MAX,
    TASKS,
    TRAJECTORY_CLIP,
    _sir_paths,
    _sir_row_summaries,
    build_training_pool,
    factor_task,
    gaussian_posterior,
    gaussian_task,
    load_pool,
    make_task,
    oup_task,
    save_pool,
    simulate_oup_trajectories,
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
        gaussian_task(d=0, n_obs=100)
    with pytest.raises(ValueError):
        gaussian_task(d=2, n_obs=0)
    with pytest.raises(ValueError):
        gaussian_posterior(np.zeros(2), n_obs=0)


# ---------------------------------------------------------------------------
# factor model
# ---------------------------------------------------------------------------

def test_factor_summary_inverts_loading():
    rng = derive_rng(41, "factor")
    task = factor_task(obs_dim=5, n_obs=4, loading=rng.standard_normal((5, 2)))
    a = np.array(task.params["loading"])
    theta = np.array([0.7, -1.2])
    noiseless = np.tile(a @ theta, (4, 1))
    assert np.allclose(task.summary(noiseless), theta, atol=1e-10)


def test_factor_task_reconstructs_from_params():
    rng = derive_rng(41, "factor2")
    task = factor_task(obs_dim=6, n_obs=10, loading=rng.standard_normal((6, 2)))
    again = factor_task(**task.params)
    assert np.array_equal(np.array(again.params["loading"]),
                          np.array(task.params["loading"]))


def test_factor_task_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_task("factor", obs_dim=5, n_obs=10)  # no loading
    with pytest.raises(ValueError):
        factor_task(obs_dim=5, n_obs=10, loading=np.zeros((5, 2)))  # singular
    with pytest.raises(ValueError):
        factor_task(obs_dim=1, n_obs=10, loading=derive_rng(41, "x").standard_normal((1, 2)))


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
    task = oup_task(n_obs=100, horizon=25)
    rng = derive_rng(42, "prior")
    draws = np.stack([task.prior_sample(rng) for _ in range(200)])
    (lo1, hi1), (lo2, hi2) = OUP_BOUNDS
    assert np.all((draws[:, 0] >= lo1) & (draws[:, 0] <= hi1))
    assert np.all((draws[:, 1] >= lo2) & (draws[:, 1] <= hi2))


def test_oup_task_validation():
    with pytest.raises(ValueError):
        oup_task(n_obs=0, horizon=25)
    with pytest.raises(ValueError):
        oup_task(n_obs=100, horizon=1)
    with pytest.raises(ValueError):
        oup_task(n_obs=2, horizon=5).summary(np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# stochastic SIR
# ---------------------------------------------------------------------------

def test_sir_noise_free_conserves_population(monkeypatch):
    # _sir_paths leaves R implicit; the reference loop tracks it, gives the
    # same counts, and keeps S + I + R at 1 before every clip
    monkeypatch.setattr(simulators, "SIR_SIGMA", 0.0)
    monkeypatch.setattr(simulators, "SIR_ETA", 0.0)
    theta = np.array([[0.4, 0.1], [0.3, 0.2], [0.45, 0.05], [0.2, 0.0]])
    noise = np.zeros((200, 4))
    counts, pre_clip = sir_reference_paths(theta, noise)
    out = _sir_paths(theta, noise)
    assert out.tobytes() == counts.tobytes()
    assert np.allclose(pre_clip, 1.0, rtol=0.0, atol=1e-12)
    assert np.all(out >= 0.0) and np.all(out <= SIR_POPULATION)


def test_sir_noise_free_converges_to_ode(monkeypatch):
    # with sigma = eta = 0 the contact rate is constant and the model is the
    # classic SIR ODE; Euler output must approach a high-accuracy solver as
    # the step shrinks
    monkeypatch.setattr(simulators, "SIR_SIGMA", 0.0)
    monkeypatch.setattr(simulators, "SIR_ETA", 0.0)
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
        monkeypatch.setattr(simulators, "SIR_DT", dt)
        out = simulate_sir_trajectories(np.array([beta, gamma]), n_traj=1,
                                        horizon=steps, rng=StubNormals(0.0))
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


def test_sir_paths_match_the_three_compartment_reference():
    # per-path thetas (one with gamma = 0), one shared theta, and noise
    # large enough that the clip to [0, 1] moves S + I + R off 1; the
    # noise-free case is test_sir_noise_free_conserves_population's
    thetas = np.array([[0.4, 0.1], [0.3, 0.2], [0.45, 0.05], [0.2, 0.0]])
    noise = derive_rng(43, "sir-reference").standard_normal((365, 4))
    cases = [(thetas, noise), (np.array([0.35, 0.15]), noise[:120, :3]),
             (thetas, 40.0 * noise)]
    for theta, z in cases:
        counts, _ = sir_reference_paths(theta, z)
        assert _sir_paths(theta, z).tobytes() == counts.tobytes()
    assert np.abs(sir_reference_paths(thetas, 40.0 * noise)[1] - 1.0).max() > 1e-3


def test_oup_summary_matches_the_scalar_reference():
    task = oup_task(n_obs=20, horizon=25)
    rng = derive_rng(46, "oup-summary")
    cases = [task.simulate(task.prior_sample(rng), rng) for _ in range(10)]
    cases += [np.full((20, 25), OUP_X0), np.zeros((20, 25))]  # constant: correlation 0
    for data in cases:
        assert task.summary(data).tobytes() == oup_summary(data).tobytes()
    assert task.summary(cases[-1])[2] == 0.0


def test_sir_summary_shape_and_determinism():
    task = sir_task(n_obs=3, horizon=30)
    data = task.simulate(np.array([0.3, 0.1]), derive_rng(43, "sim"))
    s = task.summary(data)
    assert s.shape == (6,)
    assert np.array_equal(s, task.summary(data.copy()))


def _sir_cases():
    """Datasets of the SIR summary's parity test: clean, weekend-contaminated,
    all-zero rows and constant rows."""
    task = sir_task(n_obs=20, horizon=365)
    rng = derive_rng(46, "sir-summary")
    cases = []
    for _ in range(6):
        clean = task.simulate(task.prior_sample(rng), rng)
        cases += [clean, contaminate_sir(clean, 0.5, rng)]
    cases.append(np.zeros((20, 365)))
    constant = np.repeat(np.arange(20, dtype=np.float64)[:, None] * 3.5, 365, axis=1)
    cases.append(constant)  # row 0 all zero, the others constant and positive
    mixed = cases[0].copy()
    mixed[::3] = 0.0
    cases.append(mixed)
    return task, cases


def test_sir_row_summaries_match_the_per_row_reference():
    task, cases = _sir_cases()
    for data in cases:
        rows = _sir_row_summaries(data)
        reference = np.stack([sir_trajectory_summary(row) for row in data])
        assert rows.tobytes() == reference.tobytes()
        assert task.summary(data).tobytes() == reference.mean(axis=0).tobytes()
    constant = cases[-2]
    assert np.all(_sir_row_summaries(constant)[:, 5] == 0.0)  # lag-1 correlation
    assert np.all(_sir_row_summaries(cases[-3]) == 0.0)  # all-zero rows, half day 0


def test_sir_summary_of_one_trajectory_matches_the_reference():
    task = sir_task(n_obs=1, horizon=365)
    rng = derive_rng(46, "one-row")
    for _ in range(5):
        data = task.simulate(task.prior_sample(rng), rng)
        assert task.summary(data).tobytes() == sir_trajectory_summary(data[0]).tobytes()


def test_sir_half_day_is_the_first_crossing_of_half_the_total():
    # counts never go negative in simulated or contaminated data, but a
    # caller may pass them; the half day is then the first day whose
    # running total reaches half the total, which searchsorted on the
    # non-monotone running total does not find
    x = np.array([[3.0, -2.0, 2.0, 1.0],  # running total 3, 1, 3, 4: day 0
                  [-1.0, 2.0, -1.0, 2.0],  # -1, 1, 0, 2: day 1
                  [1.0, -1.0, -1.0, 0.5]])  # total -0.5 is not positive: 0
    rows = _sir_row_summaries(x)
    assert np.array_equal(rows[:, 4], np.log1p([0.0, 1.0, 0.0]))
    assert sir_trajectory_summary(x[0])[4] != rows[0, 4]
    # the other five statistics keep the reference's values
    for row, ref in zip(rows, (sir_trajectory_summary(r) for r in x)):
        assert np.array_equal(np.delete(row, 4), np.delete(ref, 4))
    # no day reaches half the total: the horizon. The eight-way pairwise
    # sum keeps the ones that the running total rounds away next to -1e17.
    y = np.array([[-1e17] + [7.0] * 7 + [1e17] + [1.0] * 7])
    assert y.sum() == 56.0 and np.cumsum(y).max() == 7.0
    assert _sir_row_summaries(y)[0, 4] == np.log1p(16.0)


# ---------------------------------------------------------------------------
# batched raw simulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("task", [
    gaussian_task(d=3, n_obs=5),
    factor_task(obs_dim=7, n_obs=5, loading=derive_rng(45, "loading").standard_normal((7, 2))),
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
    # one observation row per parameter, as one-row datasets drawn in a loop
    one_row = dataclasses.replace(task, n_obs=1)
    reference = np.stack([reference_dataset(one_row, t, ref_rng)[0] for t in thetas])
    assert batched.shape == (thetas.shape[0], task.obs_dim)
    assert np.array_equal(batched, reference)
    with pytest.raises(ValueError):
        task.simulate_raw(thetas[0], ref_rng)  # one parameter, not a batch


POOL_TASKS = [
    gaussian_task(d=2, n_obs=5),
    factor_task(obs_dim=4, n_obs=5, loading=derive_rng(48, "loading").standard_normal((4, 2))),
    oup_task(n_obs=4, horizon=8),
    sir_task(n_obs=3, horizon=60),
]

# sha256 of the little-endian float64 bytes of thetas, datasets and
# summaries of a 6-record pool with master seed 48, as the per-record loop
# wrote them. The pool's cache key does not cover the code, so a change of
# these bytes must fail here rather than be served from a stale cache.
POOL_DIGESTS = {
    "gaussian": "c63c61f35c00c08fa2b6cf0a1fa16b974e38596aa926d44e718a4f1f481a3f1c",
    "factor": "a05bf4ecfaeb621f324fb5457e07a2f077e32012754139cca40fdc7e522942d2",
    "oup": "649cdfdc3041f9af88d4d55219b22114ad5f0660ed0d7476f243a72586de9932",
    "sir": "1516f9efa1e1cc8d73bd0742846eac0e06fe5b490244a177085a3977ffab188b",
}


@pytest.mark.parametrize("task", POOL_TASKS, ids=lambda t: t.name)
def test_simulate_many_matches_one_dataset_calls(task):
    rng = derive_rng(47, "thetas", task.name)
    thetas = np.stack([task.prior_sample(rng) for _ in range(4)])
    rngs = [derive_rng(47, "many", k) for k in range(4)]
    many = task.simulate_many(thetas, rngs)
    assert many.shape == (4, task.n_obs, task.obs_dim)
    for m in range(4):
        twin = derive_rng(47, "many", m)
        assert task.simulate(thetas[m], twin).tobytes() == many[m].tobytes()
        assert twin.bit_generator.state == rngs[m].bit_generator.state
        reference = reference_dataset(task, thetas[m], derive_rng(47, "many", m))
        assert reference.tobytes() == many[m].tobytes()
    with pytest.raises(ValueError):
        task.simulate_many(thetas, rngs[:3])  # one rng short
    with pytest.raises(ValueError):
        task.simulate_many(thetas[0], rngs[:1])  # one parameter, not a batch


@pytest.mark.parametrize("task", POOL_TASKS, ids=lambda t: t.name)
def test_training_pool_matches_the_per_record_loop(task, monkeypatch):
    for n in (8, 1):
        expected = reference_pool(task, n, 49)
        pools = [build_training_pool(task, n, 49)]
        # 3 records per chunk: 8 records span 3 chunks, the last one short
        monkeypatch.setattr(simulators, "_POOL_CHUNK_ELEMS", 3 * task.n_obs * task.obs_dim)
        pools.append(build_training_pool(task, n, 49))
        monkeypatch.undo()
        for pool in pools:
            assert pool.thetas.tobytes() == expected[0].tobytes()
            assert pool.datasets.tobytes() == expected[1].tobytes()
            assert pool.summaries.tobytes() == expected[2].tobytes()


@pytest.mark.parametrize("task", POOL_TASKS, ids=lambda t: t.name)
def test_training_pool_golden_digest(task):
    pool = build_training_pool(task, 6, 48)
    digest = hashlib.sha256()
    for a in (pool.thetas, pool.datasets, pool.summaries):
        digest.update(a.astype("<f8").tobytes())
    assert digest.hexdigest() == POOL_DIGESTS[task.name]


# ---------------------------------------------------------------------------
# registry and pools
# ---------------------------------------------------------------------------

def test_make_task_round_trips():
    for task in (gaussian_task(d=3, n_obs=7),
                 oup_task(n_obs=4, horizon=8),
                 sir_task(n_obs=2, horizon=12),
                 factor_task(obs_dim=4, n_obs=5,
                             loading=derive_rng(44, "f").standard_normal((4, 2)))):
        rebuilt = make_task(task.name, **task.params)
        assert rebuilt.name == task.name
        assert rebuilt.summary_dim == task.summary_dim
        assert rebuilt.obs_dim == task.obs_dim
    with pytest.raises(ValueError):
        make_task("unknown")


OUTSIDE_PRIOR = {"oup": [3.0, 0.0], "sir": [0.1, 0.2]}


@pytest.mark.parametrize("name", TASKS)
def test_every_registered_task_rebuilds_and_checks_its_inputs(name):
    task = build_task(config_from_dict({"task": name, "n_obs": 4}))
    assert task.name == name
    assert set(task.params) - {"loading"} == set(TASKS[name].sizes)
    thetas = np.stack([task.prior_sample(derive_rng(60, "prior", i)) for i in range(3)])
    runs = []
    for t in (task, make_task(task.name, **task.params)):
        rngs = [derive_rng(60, "data", i) for i in range(3)]
        data = t.simulate_many(thetas, rngs)
        summaries = np.stack([t.summary(x) for x in data])
        runs.append((data.tobytes(), summaries.tobytes(),
                     [rng.bit_generator.state for rng in rngs]))
    assert runs[0] == runs[1]
    with pytest.raises(ValueError, match=f"{name}_task"):
        task.summary(np.zeros((task.n_obs + 1, task.obs_dim)))
    if name in OUTSIDE_PRIOR:
        with pytest.raises(ValueError):
            task.simulate(np.array(OUTSIDE_PRIOR[name]), derive_rng(60, "outside"))


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


class _Unwritable:
    shape = (4, 2)

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk full")


def test_a_failed_pool_save_keeps_the_old_file_and_leaves_no_other(tmp_path):
    pool = build_training_pool(oup_task(n_obs=3, horizon=6), n_datasets=4, master_seed=5)
    path = tmp_path / "pool.npz"
    save_pool(pool, path)
    old = path.read_bytes()
    pool.summaries = _Unwritable()  # np.savez fails after writing the first arrays
    with pytest.raises(OSError, match="disk full"):
        save_pool(pool, path)
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == old
    path.unlink()
    with pytest.raises(OSError, match="disk full"):
        save_pool(pool, path)
    assert list(tmp_path.iterdir()) == []
