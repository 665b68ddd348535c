import copy
import dataclasses

import numpy as np
import pytest
from helpers import closed_form_embedding

from mdsum import adaptation, inference, simulators
from mdsum.adaptation import (
    CLIP_BAND,
    _optimizer_start,
    adapt,
    calibrate_threshold,
    detect,
)
from mdsum.inference import (
    DecoderEmbedding,
    HoldoutRecords,
    decoder_embed,
    decoder_objective,
    standardize,
    train_decoder,
)
from mdsum.kernels import build_feature_map, mean_embedding, median_heuristic
from mdsum.nn import forward_batch, mlp_init
from mdsum.optimize import lbfgs_minimize
from mdsum.simulators import build_training_pool, gaussian_task
from mdsum.util import NumericalError, derive_rng

N_OBS = 20


@pytest.fixture(scope="module")
def calibrated_decoder():
    task = gaussian_task(d=2, n_obs=N_OBS)
    pool = build_training_pool(task, 1500, master_seed=23)
    bw = median_heuristic(pool.datasets.reshape(-1, 2), rng=derive_rng(23, "bw"))
    fm = build_feature_map(2, 64, bw, derive_rng(23, "fm"))
    dec, holdout, _ = train_decoder(pool, fm, derive_rng(23, "train"),
                                    max_epochs=150, patience=20)
    calibrate_threshold(dec, holdout, alpha=0.05)
    return task, dec


def zero_prediction_decoder():
    """Decoder whose regressor always outputs 0, for threshold arithmetic."""
    mlp = mlp_init([1, 1], derive_rng(24, "zero"))
    mlp.weights[0][:] = 0.0
    fm = build_feature_map(1, 1, 1.0, derive_rng(24, "fm"))
    return DecoderEmbedding(feature_map=fm, regressor=mlp, summary_mean=np.zeros(1),
                            summary_std=np.ones(1), task=gaussian_task(d=1, n_obs=N_OBS))


# ---------------------------------------------------------------------------
# threshold calibration and detection
# ---------------------------------------------------------------------------

def test_calibrate_threshold_quantile_arithmetic():
    # statistics are ||0 - z_i||^2; choosing z_i = sqrt(i) makes them 1..100,
    # whose 0.95 linear-interpolation quantile is 95.05
    dec = zero_prediction_decoder()
    values = np.arange(1.0, 101.0)
    holdout = HoldoutRecords(summaries=np.zeros((100, 1)),
                             embeddings=np.sqrt(values)[:, None])
    tau = calibrate_threshold(dec, holdout, alpha=0.05)
    assert tau == pytest.approx(95.05, abs=1e-12)
    assert dec.threshold == tau


def test_calibrate_threshold_validation():
    dec = zero_prediction_decoder()
    holdout = HoldoutRecords(summaries=np.zeros((10, 1)), embeddings=np.ones((10, 1)))
    with pytest.raises(ValueError):
        calibrate_threshold(dec, holdout, alpha=0.0)
    with pytest.raises(ValueError):
        calibrate_threshold(dec, holdout, alpha=1.0)
    with pytest.raises(ValueError):
        calibrate_threshold(dec, HoldoutRecords(summaries=np.zeros((0, 1)),
                                                embeddings=np.zeros((0, 1))))


def test_detect_requires_calibration():
    dec = zero_prediction_decoder()
    with pytest.raises(RuntimeError):
        detect(dec, np.zeros(1), np.array([1.0]))


def test_detect_statistic_and_flag():
    dec = zero_prediction_decoder()
    dec.threshold = 4.0
    stat, flagged = detect(dec, np.zeros(1), np.array([1.5]))
    assert stat == pytest.approx(2.25) and not flagged
    stat, flagged = detect(dec, np.zeros(1), np.array([2.5]))
    assert stat == pytest.approx(6.25) and flagged
    # boundary: strictly-greater comparison
    stat, flagged = detect(dec, np.zeros(1), np.array([2.0]))
    assert stat == pytest.approx(4.0) and not flagged


def test_calibrated_threshold_flags_few_clean_datasets(calibrated_decoder):
    task, dec = calibrated_decoder
    flags = 0
    for j in range(40):
        rng = derive_rng(25, "clean", j)
        theta = task.prior_sample(rng)
        data = task.simulate(theta, rng)
        _, flagged = detect(dec, task.summary(data), mean_embedding(dec.feature_map, data))
        flags += int(flagged)
    assert flags <= 8  # nominal rate 5% of 40 = 2; generous cap


# ---------------------------------------------------------------------------
# optimizer start and minimization
# ---------------------------------------------------------------------------

def test_optimizer_start_in_range_is_exact(calibrated_decoder):
    _, dec = calibrated_decoder
    s0 = dec.summary_mean + 0.5 * dec.summary_std
    assert np.array_equal(_optimizer_start(dec, s0), s0)


def test_optimizer_start_clips_absurd_summaries(calibrated_decoder):
    _, dec = calibrated_decoder
    s0 = np.full(2, 1e6)
    start = _optimizer_start(dec, s0)
    u = standardize(start, dec.summary_mean, dec.summary_std)
    assert np.all(np.abs(u) <= CLIP_BAND + 1e-9)


def test_minimize_matches_grid_search(calibrated_decoder):
    # independent route: dense grid evaluation of the same objective
    _, dec = calibrated_decoder
    s_true = np.array([0.3, -0.4])
    target = closed_form_embedding(dec.feature_map, s_true, N_OBS)

    s_star, _, converged = lbfgs_minimize(
        decoder_objective(dec, target), _optimizer_start(dec, np.array([1.2, 0.6])))
    assert converged

    ax = np.linspace(-0.7, 1.3, 101)
    gx, gy = np.meshgrid(ax, ax)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    u = standardize(grid, dec.summary_mean, dec.summary_std)
    outputs, _ = forward_batch(dec.regressor, u)
    values = ((outputs - target) ** 2).sum(axis=1)
    best = grid[int(values.argmin())]

    obj_star = float(((decoder_embed(dec, s_star) - target) ** 2).sum())
    assert obj_star <= values.min() + 1e-10  # at least as good as the grid
    assert np.linalg.norm(s_star - best) <= 0.05  # within grid resolution
    assert np.linalg.norm(s_star - s_true) <= 0.2  # near the planted summary


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_detect_rejects_non_finite_input():
    dec = zero_prediction_decoder()
    dec.threshold = 4.0
    with pytest.raises(NumericalError):
        detect(dec, np.array([np.nan]), np.array([1.5]))
    with pytest.raises(NumericalError):
        detect(dec, np.zeros(1), np.array([np.inf]))


def contaminated_dataset(s_true, rng):
    data = s_true + rng.standard_normal((N_OBS, 2))
    data[:4] = 6.0  # four far outliers, one fifth of the rows
    return data


def test_adapt_gate_pass_through_is_bit_exact(calibrated_decoder):
    task, dec = calibrated_decoder
    rng = derive_rng(26, "pass")
    data = task.simulate(np.array([0.2, -0.1]), rng)
    res = adapt(dec, data, gate=True)
    if res.detected:  # rare on clean data; the contract below is for passes
        pytest.skip("this clean dataset happened to be flagged")
    assert np.array_equal(res.s_star, res.s_initial)
    assert res.iterations == 0 and res.converged
    assert res.objective_final == res.objective_initial == res.statistic
    assert res.threshold == dec.threshold


def test_adapt_flags_and_improves_contaminated_data(calibrated_decoder):
    task, dec = calibrated_decoder
    s_true = np.array([0.5, 0.5])
    wins = 0
    for j in range(10):
        data = contaminated_dataset(s_true, derive_rng(26, "contam", j))
        res = adapt(dec, data, gate=True)
        assert res.detected  # outliers at 6 are far outside the clean band
        assert res.objective_final < res.objective_initial
        clean_mean = data[4:].mean(axis=0)
        if (np.linalg.norm(res.s_star - clean_mean)
                < np.linalg.norm(res.s_initial - clean_mean)):
            wins += 1
    assert wins >= 8


def test_adapt_gate_disabled_always_adapts(calibrated_decoder):
    task, dec = calibrated_decoder
    rng = derive_rng(26, "nogate")
    data = task.simulate(np.array([0.0, 0.0]), rng)
    res = adapt(dec, data, gate=False)
    assert res.detected
    assert res.objective_final <= res.objective_initial


def test_adapt_requires_threshold_when_gated(calibrated_decoder):
    task, dec = calibrated_decoder
    bare = copy.copy(dec)
    bare.threshold = None
    data = task.simulate(np.zeros(2), derive_rng(26, "bare"))
    with pytest.raises(RuntimeError):
        adapt(bare, data, gate=True)
    res = adapt(bare, data, gate=False)  # ungated path never needs it
    assert res.threshold is None


def test_adapt_takes_its_summary_from_the_decoder_task(calibrated_decoder):
    # the summary is dec.task's, the task the decoder was trained on
    task, dec = calibrated_decoder
    data = task.simulate(np.zeros(2), derive_rng(26, "anon"))
    shifted = copy.copy(dec)
    shifted.task = dataclasses.replace(task, summary=lambda d: d.mean(axis=0) + 1.0)
    res = adapt(shifted, data, gate=False)
    assert np.array_equal(res.s_initial, data.mean(axis=0) + 1.0)
    assert np.array_equal(adapt(dec, data, gate=False).s_initial, data.mean(axis=0))


def test_adapt_rebuilds_no_task(calibrated_decoder, monkeypatch):
    # the decoder carries its task, built once when it is trained or loaded;
    # a query never rebuilds it
    task, dec = calibrated_decoder
    calls = []
    for module in (simulators, inference, adaptation):
        monkeypatch.setattr(module, "make_task",
                            lambda *a, _f=module.make_task, **k: calls.append(a) or _f(*a, **k))
    for i in range(3):
        clean = task.simulate(np.zeros(2), derive_rng(26, "rebuild", i))
        dirty = contaminated_dataset(np.zeros(2), derive_rng(26, "rebuild-dirty", i))
        for data in (clean, dirty):
            for gate in (True, False):
                adapt(dec, data, gate=gate)
    assert calls == []


def test_adapt_falls_back_when_optimizer_cannot_improve(calibrated_decoder, monkeypatch):
    # an optimizer that stays at its start, or hands back a non-finite point,
    # must leave adapt with the observed summary
    task, dec = calibrated_decoder
    data = contaminated_dataset(np.zeros(2), derive_rng(26, "fallback"))
    stand_ins = {
        "start": lambda objective, x0: (np.array(x0, dtype=np.float64), 3, True),
        "nan": lambda objective, x0: (np.full(len(x0), np.nan), 3, True),
    }
    for name, optimizer in stand_ins.items():
        monkeypatch.setattr("mdsum.adaptation.lbfgs_minimize", optimizer)
        res = adapt(dec, data, gate=False)
        assert np.array_equal(res.s_star, res.s_initial), name
        assert res.objective_final == res.objective_initial, name
        assert not res.converged, name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adapt_fails_closed_on_non_finite_data(calibrated_decoder, bad):
    # a non-finite statistic would compare as "not flagged"; the gate must
    # raise instead, with the gate on or off
    task, dec = calibrated_decoder
    data = task.simulate(np.zeros(2), derive_rng(26, "nonfinite"))
    data[3, 1] = bad
    for gate in (True, False):
        with pytest.raises(NumericalError):
            adapt(dec, data, gate=gate)


@pytest.mark.parametrize("shape", [(N_OBS + 1, 2), (N_OBS, 3), (2 * N_OBS,)],
                         ids=["rows", "width", "1d"])
def test_adapt_rejects_wrongly_shaped_observations(calibrated_decoder, shape):
    # a dataset the decoder's task cannot have produced must fail loudly,
    # before any summary is computed, with the gate on or off
    task, dec = calibrated_decoder
    data = derive_rng(26, "shape").standard_normal(shape)
    for gate in (True, False):
        with pytest.raises(ValueError, match="observations must have shape"):
            adapt(dec, data, gate=gate)

    def summary(_):
        raise AssertionError("summary computed on a wrongly shaped dataset")

    guarded = copy.copy(dec)
    guarded.task = dataclasses.replace(task, summary=summary)
    for gate in (True, False):
        with pytest.raises(ValueError, match="observations must have shape"):
            adapt(guarded, data, gate=gate)


def test_detect_and_adapt_share_the_statistic(calibrated_decoder):
    # one definition: adapt's statistic and final objective are detect's
    # statistic at s0 and at s_star, bit for bit
    task, dec = calibrated_decoder
    clean = task.simulate(np.array([0.2, -0.1]), derive_rng(26, "same", 0))
    dirty = contaminated_dataset(np.array([0.5, 0.5]), derive_rng(26, "same", 1))
    for data in (clean, dirty):
        emb = mean_embedding(dec.feature_map, data)
        statistic, flagged = detect(dec, task.summary(data), emb)
        for gate in (True, False):
            res = adapt(dec, data, gate=gate)
            assert res.statistic == res.objective_initial == statistic
            assert res.detected == (flagged or not gate)
            assert res.objective_final == detect(dec, res.s_star, emb)[0]


def test_adapt_result_is_deterministic(calibrated_decoder):
    task, dec = calibrated_decoder
    data = contaminated_dataset(np.array([-0.3, 0.8]), derive_rng(26, "det"))
    a = adapt(dec, data, gate=False)
    b = adapt(dec, data, gate=False)
    assert np.array_equal(a.s_star, b.s_star)
    assert a.objective_final == b.objective_final
    assert a.iterations == b.iterations

