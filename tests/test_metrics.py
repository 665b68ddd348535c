import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from mdsum import metrics
from mdsum.kernels import median_heuristic
from mdsum.metrics import (coverage, predictive_mmd, reference_mmds, rmse, sample_mmd,
                           summary_oracle_distance)
from mdsum.simulators import gaussian_task
from mdsum.util import NumericalError, derive_rng


# ---------------------------------------------------------------------------
# rmse
# ---------------------------------------------------------------------------

def test_rmse_hand_values():
    samples = np.array([[0.0, 0.0], [2.0, 2.0]])  # mean (1, 1)
    assert rmse(samples, np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert rmse(samples, np.array([1.0, 1.0])) == 0.0
    assert rmse(samples, np.array([1.0, 4.0])) == pytest.approx(np.sqrt(9.0 / 2.0))


def test_rmse_matches_direct_formula():
    rng = derive_rng(60, "rmse")
    samples = rng.standard_normal((500, 3))
    theta = rng.standard_normal(3)
    expected = np.sqrt(np.mean((samples.mean(axis=0) - theta) ** 2))
    assert rmse(samples, theta) == pytest.approx(expected, rel=1e-14)


def test_rmse_validation():
    with pytest.raises(ValueError):
        rmse(np.zeros((5, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        rmse(np.zeros(5), np.zeros(1))  # samples must be a matrix


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_hand_values():
    samples = np.arange(1.0, 101.0)[:, None]
    # central 95% interval of 1..100 is [3.475, 97.525]
    assert coverage(samples, np.array([50.0])) == 1.0
    assert coverage(samples, np.array([2.0])) == 0.0
    assert coverage(samples, np.array([99.0])) == 0.0
    assert coverage(samples, np.array([3.475])) == 1.0  # boundary included


def test_coverage_mixed_dimensions():
    samples = np.column_stack([np.arange(1.0, 101.0), np.arange(1.0, 101.0)])
    assert coverage(samples, np.array([50.0, 2.0])) == 0.5


def test_coverage_alpha_controls_width(monkeypatch):
    samples = np.arange(1.0, 101.0)[:, None]
    # a tighter interval (larger alpha) stops covering the tail point
    assert coverage(samples, np.array([6.0])) == 1.0
    monkeypatch.setattr(metrics, "COVERAGE_ALPHA", 0.2)
    assert coverage(samples, np.array([6.0])) == 0.0


def test_coverage_validation():
    samples = np.zeros((10, 2))
    with pytest.raises(ValueError):
        coverage(samples, np.zeros(3))


# ---------------------------------------------------------------------------
# sample MMD
# ---------------------------------------------------------------------------

def test_sample_mmd_zero_on_identical_sets():
    rng = derive_rng(61, "same")
    a = rng.standard_normal((40, 2))
    assert sample_mmd(a, a.copy()) == pytest.approx(0.0, abs=1e-7)


def test_sample_mmd_symmetry():
    # below the pair sample the bandwidth is exact either way round, and
    # the exact MMD agrees to roundoff under the swap
    rng = derive_rng(61, "sym")
    for _ in range(20):
        n_a, n_b = rng.integers(20, 401, size=2)
        a = rng.standard_normal((n_a, 2))
        b = rng.standard_normal((n_b, 2)) + 1.0
        assert sample_mmd(a, b) == pytest.approx(sample_mmd(b, a), rel=1e-12)


def test_sample_mmd_symmetry_is_exact_only_below_the_pair_sample():
    # the exact-path bandwidth is a median over the same distances either
    # way round; the sampled path's fixed pair codes pick other pairs once
    # the stacked rows swap, so the value then agrees only closely
    rng = derive_rng(61, "sym-sampled")
    a = rng.standard_normal((30, 2))
    b = rng.standard_normal((25, 2)) + 1.0
    assert median_heuristic(np.vstack([a, b])) == median_heuristic(np.vstack([b, a]))
    a = rng.standard_normal((1000, 2))
    b = rng.standard_normal((1000, 2)) + 0.5
    assert sample_mmd(a, b) == pytest.approx(sample_mmd(b, a), rel=1e-3)


def test_sample_mmd_two_point_hand_value():
    # pooled rows {0, 1}: median-heuristic bandwidth 1, so
    # mmd^2 = k(0,0) + k(1,1) - 2 k(0,1) = 2 - 2 exp(-1/2)
    got = sample_mmd(np.array([[0.0]]), np.array([[1.0]]))
    assert got == pytest.approx(np.sqrt(2.0 - 2.0 * np.exp(-0.5)), rel=1e-12)


def test_sample_mmd_orders_separation():
    rng = derive_rng(61, "order")
    base = rng.standard_normal((100, 2))
    near = rng.standard_normal((100, 2)) + 0.3
    far = rng.standard_normal((100, 2)) + 3.0
    assert sample_mmd(base, far) > sample_mmd(base, near)


def test_sample_mmd_validation():
    with pytest.raises(ValueError):
        sample_mmd(np.zeros((5, 2)), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# MMD against one reference
# ---------------------------------------------------------------------------

def _full_matrix_mmd(x, ref):
    bandwidth = np.median(pdist(ref))  # the reference's rows alone
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    kxx = np.exp(-gamma * cdist(x, x, "sqeuclidean")).mean()
    kyy = np.exp(-gamma * cdist(ref, ref, "sqeuclidean")).mean()
    kxy = np.exp(-gamma * cdist(x, ref, "sqeuclidean")).mean()
    return np.sqrt(max(kxx + kyy - 2.0 * kxy, 0.0))


def test_reference_mmds_match_a_full_matrix_reference():
    rng = derive_rng(63, "ref")
    for d, n_ref in ((1, 50), (2, 1000), (5, 301)):
        ref = rng.standard_normal((n_ref, d))
        sets = [rng.standard_normal((n, d)) + shift
                for n, shift in ((1000, 0.0), (64, 0.4), (300, 2.0))]
        got = reference_mmds(sets, ref)
        assert len(got) == len(sets)
        for value, x in zip(got, sets):
            assert value == pytest.approx(_full_matrix_mmd(x, ref), rel=1e-12)


def test_a_sets_reference_mmd_does_not_depend_on_the_other_sets():
    rng = derive_rng(63, "alone")
    ref = rng.standard_normal((200, 2))
    a, b, other = (rng.standard_normal((150, 2)) + s for s in (0.0, 0.5, 3.0))
    ab = reference_mmds([a, b], ref)
    assert reference_mmds([other, b], ref)[1] == ab[1]
    assert reference_mmds([b], ref) == ab[1:]


def test_reference_mmds_validation():
    ref = np.zeros((5, 2)) + np.arange(5.0)[:, None]
    with pytest.raises(ValueError):
        reference_mmds([np.zeros((5, 3))], ref)
    with pytest.raises(NumericalError):
        reference_mmds([np.full((5, 2), np.nan)], ref)
    with pytest.raises(ValueError):
        reference_mmds([np.zeros((5, 2))], ref[:1])  # one row has no median distance


# ---------------------------------------------------------------------------
# posterior predictive MMD
# ---------------------------------------------------------------------------

def test_predictive_mmd_prefers_matching_parameters():
    task = gaussian_task(d=2, n_obs=60)
    rng = derive_rng(62, "pp")
    theta = np.array([0.5, -0.5])
    clean = task.simulate(theta, rng)
    good_post = theta + 0.1 * derive_rng(62, "good").standard_normal((300, 2))
    bad_post = theta + 4.0 + 0.1 * derive_rng(62, "bad").standard_normal((300, 2))
    mmd_good, mmd_bad = predictive_mmd(task, [good_post, bad_post], clean, 100,
                                       [derive_rng(62, "rep1"), derive_rng(62, "rep2")])
    assert mmd_bad > 2.0 * mmd_good


def test_predictive_mmd_accepts_out_of_prior_draws():
    # posterior draws may land outside the prior box; simulation must not
    # reject them
    from mdsum.simulators import oup_task

    task = oup_task(n_obs=4, horizon=6)
    clean = task.simulate(np.array([1.0, 0.0]), derive_rng(62, "oupclean"))
    off_prior = np.tile([2.5, 0.0], (20, 1))  # outside the box
    (value,) = predictive_mmd(task, [off_prior], clean, 10, [derive_rng(62, "oupp")])
    assert np.isfinite(value) and value >= 0.0


def test_predictive_mmd_is_deterministic_given_stream():
    task = gaussian_task(d=2, n_obs=20)
    clean = task.simulate(np.zeros(2), derive_rng(62, "det"))
    post = derive_rng(62, "detpost").standard_normal((100, 2))
    a = predictive_mmd(task, [post], clean, 50, [derive_rng(62, "detrep")])
    b = predictive_mmd(task, [post], clean, 50, [derive_rng(62, "detrep")])
    assert a == b


def test_predictive_mmd_validation():
    task = gaussian_task(d=2, n_obs=10)
    with pytest.raises(ValueError):
        predictive_mmd(task, np.zeros((5, 2)), np.zeros((10, 2)), 1, derive_rng(62, "v"))


# ---------------------------------------------------------------------------
# summary distance
# ---------------------------------------------------------------------------

def test_summary_oracle_distance_hand_values():
    assert summary_oracle_distance(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(5.0)
    assert summary_oracle_distance(np.array([1.0]), np.array([1.0])) == 0.0


def test_summary_oracle_distance_validation():
    with pytest.raises(ValueError):
        summary_oracle_distance(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        summary_oracle_distance(np.zeros((2, 2)), np.zeros((2, 2)))
