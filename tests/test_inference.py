import copy
import json

import numpy as np
import pytest
from helpers import (closed_form_embedding, fd_gradient, fixed_decoder, hex_encoded,
                     mdn_log_prob, posterior_kl_analytic, posterior_moments, saved_form)
from scipy.special import logsumexp
from scipy.stats import norm

from mdsum import inference
from mdsum.inference import (
    AnalyticGaussianEngine,
    MdnEngine,
    decoder_embed,
    decoder_from_payload,
    decoder_hash,
    decoder_load,
    decoder_objective,
    decoder_save,
    decoder_to_payload,
    engine_from_payload,
    engine_hash,
    engine_load,
    engine_save,
    engine_to_payload,
    mdn_loss_grad_factory,
    mdn_parameters,
    pool_feature_means,
    posterior_sample,
    standardize,
    train_decoder,
    train_mdn,
)
from mdsum.kernels import build_feature_map, mean_embedding, median_heuristic
from mdsum.nn import forward_batch, mlp_forward, mlp_init
from mdsum.simulators import build_training_pool, gaussian_task
from mdsum.util import NumericalError, derive_rng, map_arrays


def small_pool(m=1500, n_obs=20, seed=11):
    return build_training_pool(gaussian_task(d=2, n_obs=n_obs), m, master_seed=seed)


@pytest.fixture(scope="module")
def trained_decoder():
    pool = small_pool()
    bw = median_heuristic(pool.datasets.reshape(-1, 2), rng=derive_rng(11, "bw"))
    fm = build_feature_map(2, 64, bw, derive_rng(11, "fm"))
    dec, holdout, report = train_decoder(
        pool, fm, derive_rng(11, "train"), max_epochs=150, patience=20)
    return pool, dec, holdout, report


def make_mdn_engine(theta_dim=1, n_components=3, seed=12):
    out_dim = n_components * (1 + 2 * theta_dim)
    mlp = mlp_init([1, 16, out_dim], derive_rng(seed, "mdn"))
    return MdnEngine(mlp=mlp, n_components=n_components, theta_dim=theta_dim,
                     input_mean=np.zeros(1), input_std=np.ones(1))


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def test_pool_feature_means_matches_per_dataset_loop():
    pool = small_pool(m=12, n_obs=7, seed=13)
    fm = build_feature_map(2, 32, 1.3, derive_rng(13, "fm"))
    got = pool_feature_means(fm, pool.datasets)
    assert got.shape == (12, 32)
    for i in range(12):
        assert np.allclose(got[i], mean_embedding(fm, pool.datasets[i]),
                           rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("per", [1, 5, 8, 11, 12])  # datasets per feature chunk
def test_pool_feature_means_bits_do_not_depend_on_the_chunk(per, monkeypatch):
    # with n_obs * K a multiple of 8 (7 * 32 here; every committed K is one),
    # every chunk length gives the one-chunk bits; at other shapes the BLAS
    # product in rff_matrix rounds some rows by the chunk's row count
    # (n_obs 37, K 300 does)
    pool = small_pool(m=12, n_obs=7, seed=13)
    fm = build_feature_map(2, 32, 1.3, derive_rng(13, "fm"))
    monkeypatch.setattr(inference, "_CHUNK_ELEMS", 12 * 7 * 32)
    whole = pool_feature_means(fm, pool.datasets)
    monkeypatch.setattr(inference, "_CHUNK_ELEMS", per * 7 * 32)
    assert pool_feature_means(fm, pool.datasets).tobytes() == whole.tobytes()


def test_train_decoder_holdout_is_reserved(trained_decoder):
    pool, dec, holdout, report = trained_decoder
    assert holdout.summaries.shape == (75, 2)  # 5% of 1500
    assert holdout.embeddings.shape == (75, 64)
    # holdout rows are genuine pool rows, with their true empirical embeddings
    fm = dec.feature_map
    row = holdout.summaries[0]
    match = np.where(np.all(pool.summaries == row, axis=1))[0]
    assert len(match) == 1
    direct = mean_embedding(fm, pool.datasets[match[0]])
    assert np.allclose(holdout.embeddings[0], direct, rtol=0.0, atol=1e-12)
    assert report.epochs >= 1
    assert np.isfinite(report.best_val_loss)


def test_decoder_matches_conditional_embedding_oracle(trained_decoder):
    # the regression target has a closed form for this task; a trained
    # decoder must land close to it at typical summaries
    _, dec, _, _ = trained_decoder
    rng = derive_rng(11, "probe")
    for _ in range(10):
        s = 0.9 * rng.standard_normal(2)
        pred = decoder_embed(dec, s)
        truth = closed_form_embedding(dec.feature_map, s, n_obs=20)
        cos = pred @ truth / (np.linalg.norm(pred) * np.linalg.norm(truth))
        rel = np.linalg.norm(pred - truth) / np.linalg.norm(truth)
        assert cos >= 0.99
        assert rel <= 0.15


def test_decoder_embed_is_model_predicted(trained_decoder):
    _, dec, _, _ = trained_decoder
    assert decoder_embed(dec, np.zeros(2)).shape == (64,)


def two_pass_objective(dec, target, s):
    """Value and gradient from two forward passes: one for the value, and a
    second whose activations feed the input-gradient backprop."""
    mlp = dec.regressor
    u = standardize(s, dec.summary_mean, dec.summary_std)
    resid = mlp_forward(mlp, u) - target
    _, acts = forward_batch(mlp, u[None, :])
    g = (2.0 * resid)[None, :]
    for l in range(len(mlp.weights) - 1, 0, -1):
        g = (g @ mlp.weights[l]) * (1.0 - acts[l] ** 2)
    return float(resid @ resid), (g @ mlp.weights[0])[0] / dec.summary_std


def test_decoder_objective_value_and_gradient(trained_decoder):
    _, dec, _, _ = trained_decoder
    rng = derive_rng(11, "obj")
    target = decoder_embed(dec, np.array([0.4, -0.2]))
    obj = decoder_objective(dec, target)
    for _ in range(5):
        s = rng.standard_normal(2)
        ev = obj(s)
        direct = decoder_embed(dec, s) - target
        assert ev.value == pytest.approx(float(direct @ direct), rel=1e-12)
        fd = fd_gradient(lambda v: obj(v).value, s)
        denom = max(1.0, float(np.abs(fd).max()))
        assert np.abs(ev.gradient - fd).max() / denom < 1e-5
        # the single fused pass gives exactly what two passes give
        value, gradient = two_pass_objective(dec, target, s)
        assert ev.value == value
        assert np.array_equal(ev.gradient, gradient)


def test_decoder_objective_runs_one_forward_per_evaluation(trained_decoder, monkeypatch):
    import mdsum.nn

    _, dec, _, _ = trained_decoder
    obj = decoder_objective(dec, decoder_embed(dec, np.array([0.4, -0.2])))
    calls = []

    def counting_forward_batch(mlp, inputs):
        calls.append(inputs.shape)
        return forward_batch(mlp, inputs)

    monkeypatch.setattr(mdsum.nn, "forward_batch", counting_forward_batch)
    for k, s in enumerate(derive_rng(11, "count").standard_normal((4, 2))):
        obj(s)
        assert len(calls) == k + 1
    assert calls == [(1, 2)] * 4


def test_decoder_objective_zero_at_its_own_embedding(trained_decoder):
    _, dec, _, _ = trained_decoder
    s = np.array([0.1, 0.7])
    obj = decoder_objective(dec, decoder_embed(dec, s))
    assert obj(s).value == 0.0
    assert np.allclose(obj(s).gradient, 0.0, atol=1e-12)


def test_train_decoder_validation():
    pool = small_pool(m=20, n_obs=5, seed=14)
    fm = build_feature_map(2, 8, 1.0, derive_rng(14, "fm"))
    with pytest.raises(ValueError):
        train_decoder(pool, fm, derive_rng(14, "t"), 1, 1, holdout_frac=0.0)
    with pytest.raises(ValueError):
        train_decoder(pool, fm, derive_rng(14, "t"), 1, 1, holdout_frac=0.99)


# ---------------------------------------------------------------------------
# mixture density network
# ---------------------------------------------------------------------------

def test_mdn_loss_matches_scipy_mixture():
    c, d, b = 3, 2, 6
    rng = derive_rng(15, "loss")
    outputs = 0.5 * rng.standard_normal((b, c * (1 + 2 * d)))
    thetas = rng.standard_normal((b, d))
    loss, _ = mdn_loss_grad_factory(c, d)(outputs, thetas)

    ll = np.empty(b)
    for i in range(b):
        logits = outputs[i, :c]
        means = outputs[i, c:c + c * d].reshape(c, d)
        sig = np.exp(outputs[i, c + c * d:].reshape(c, d))
        logw = logits - logsumexp(logits)
        comp = np.array([norm.logpdf(thetas[i], loc=means[k], scale=sig[k]).sum()
                         for k in range(c)])
        ll[i] = logsumexp(logw + comp)
    assert loss == pytest.approx(-ll.mean(), rel=1e-12)


def test_mdn_loss_gradient_matches_finite_differences():
    c, d, b = 2, 2, 4
    rng = derive_rng(15, "grad")
    loss_grad = mdn_loss_grad_factory(c, d)
    outputs = 0.5 * rng.standard_normal((b, c * (1 + 2 * d)))
    thetas = rng.standard_normal((b, d))
    _, grad = loss_grad(outputs, thetas)

    flat = outputs.ravel()
    fd = fd_gradient(lambda v: loss_grad(v.reshape(b, -1), thetas)[0], flat, h=1e-6)
    denom = max(1.0, float(np.abs(fd).max()))
    assert np.abs(grad.ravel() - fd).max() / denom < 1e-6


def test_mdn_loss_gradient_zero_in_clipped_region():
    c, d = 1, 1
    loss_grad = mdn_loss_grad_factory(c, d)
    outputs = np.array([[0.3, 0.0, 5.0]])  # raw log-sigma above LOGSIG_HI
    _, grad = loss_grad(outputs, np.array([[0.2]]))
    assert grad[0, 2] == 0.0


def test_mdn_density_integrates_to_one():
    engine = make_mdn_engine()
    grid = np.linspace(-200.0, 200.0, 400_001)
    for s in (np.array([-1.0]), np.array([0.0]), np.array([2.0])):
        dens = np.exp(mdn_log_prob(engine, s, grid[:, None]))
        total = np.trapezoid(dens, grid)
        assert 0.99 <= total <= 1.01


def test_mdn_parameters_are_consistent_with_log_prob():
    engine = make_mdn_engine()
    s = np.array([0.5])
    w, means, sig = mdn_parameters(engine, s)
    assert w.shape == (3,) and means.shape == (3, 1) and sig.shape == (3, 1)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(sig > 0.0)
    theta = np.array([[0.3]])
    direct = logsumexp(np.log(w) + norm.logpdf(0.3, loc=means[:, 0], scale=sig[:, 0]))
    assert mdn_log_prob(engine, s, theta)[0] == pytest.approx(direct, rel=1e-12)


def test_mdn_moments_match_quadrature():
    engine = make_mdn_engine(seed=16)
    s = np.array([-0.7])
    mean, var = posterior_moments(engine, s)
    grid = np.linspace(-200.0, 200.0, 400_001)
    dens = np.exp(mdn_log_prob(engine, s, grid[:, None]))
    z = np.trapezoid(dens, grid)
    mean_q = np.trapezoid(grid * dens, grid) / z
    var_q = np.trapezoid((grid - mean_q) ** 2 * dens, grid) / z
    assert mean[0] == pytest.approx(mean_q, abs=1e-6)
    assert var[0] == pytest.approx(var_q, rel=1e-4)


def test_train_mdn_learns_conditional_location():
    # theta ~ N(0,1), summary = noisy theta: the fitted posterior mean must
    # track the summary and beat the prior-width spread
    pool = small_pool(m=1200, n_obs=50, seed=17)
    engine, report = train_mdn(pool, n_components=2, rng=derive_rng(17, "mdn"),
                               max_epochs=120, patience=15)
    assert np.isfinite(report.best_val_loss)
    errs = []
    for s in (np.array([-1.0, 0.5]), np.array([0.8, -0.3]), np.array([0.0, 0.0])):
        mean, var = posterior_moments(engine, s)
        errs.append(np.abs(mean - (50.0 / 51.0) * s).max())
        assert np.all(var < 0.5)  # far tighter than the prior
    assert max(errs) < 0.25


def test_train_mdn_validation():
    pool = small_pool(m=30, n_obs=5, seed=18)
    with pytest.raises(ValueError):
        train_mdn(pool, n_components=0, rng=derive_rng(18, "m"), max_epochs=1, patience=1)


# ---------------------------------------------------------------------------
# posterior queries
# ---------------------------------------------------------------------------

def test_analytic_engine_sampling_moments():
    engine = AnalyticGaussianEngine(n_obs=99, dim=2)
    s = np.array([2.0, -1.0])
    draws = posterior_sample(engine, s, 50_000, derive_rng(19, "draws"))
    mean, var = posterior_moments(engine, s)
    assert np.allclose(mean, 0.99 * s, atol=1e-12)
    assert np.allclose(var, 0.01, atol=1e-15)
    se = np.sqrt(0.01 / 50_000)
    assert np.abs(draws.mean(axis=0) - mean).max() < 4.0 * se
    assert np.allclose(draws.var(axis=0), 0.01, rtol=0.1)


def test_mdn_engine_sampling_moments():
    engine = make_mdn_engine(seed=20)
    s = np.array([0.3])
    mean, var = posterior_moments(engine, s)
    draws = posterior_sample(engine, s, 200_000, derive_rng(20, "draws"))
    se = np.sqrt(var[0] / 200_000)
    assert abs(draws.mean() - mean[0]) < 5.0 * se
    assert draws.var() == pytest.approx(var[0], rel=0.05)


def test_posterior_sample_validation():
    engine = AnalyticGaussianEngine(n_obs=10, dim=2)
    rng = derive_rng(21, "v")
    with pytest.raises(ValueError):
        posterior_sample(engine, np.zeros(2), 0, rng)
    with pytest.raises(ValueError):
        posterior_sample(engine, np.zeros(3), 5, rng)
    with pytest.raises(TypeError):
        posterior_sample(object(), np.zeros(2), 5, rng)


def test_analytic_kl_matches_quadrature():
    a = AnalyticGaussianEngine(n_obs=50, dim=1)
    b = AnalyticGaussianEngine(n_obs=20, dim=1)
    s_a, s_b = np.array([1.0]), np.array([-0.5])
    kl = posterior_kl_analytic(a, b, s_a, s_b)

    ma, va = (50 / 51) * 1.0, 1 / 51
    mb, vb = (20 / 21) * -0.5, 1 / 21
    grid = np.linspace(-3.0, 3.0, 600_001)
    p = norm.pdf(grid, ma, np.sqrt(va))
    q = norm.pdf(grid, mb, np.sqrt(vb))
    kl_q = np.trapezoid(p * (norm.logpdf(grid, ma, np.sqrt(va))
                             - norm.logpdf(grid, mb, np.sqrt(vb))), grid)
    assert kl == pytest.approx(kl_q, rel=1e-9)


def test_analytic_kl_same_posterior_is_zero():
    e = AnalyticGaussianEngine(n_obs=30, dim=3)
    s = np.array([0.2, -0.4, 1.0])
    assert posterior_kl_analytic(e, e, s, s) == pytest.approx(0.0, abs=1e-14)


def test_analytic_kl_validation():
    a = AnalyticGaussianEngine(n_obs=10, dim=2)
    with pytest.raises(TypeError):
        posterior_kl_analytic(a, make_mdn_engine(), np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        posterior_kl_analytic(a, AnalyticGaussianEngine(n_obs=10, dim=3),
                              np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# serialization and hashing
# ---------------------------------------------------------------------------

def test_decoder_round_trip_is_value_exact(trained_decoder, tmp_path):
    _, dec, holdout, _ = trained_decoder
    path = tmp_path / "decoder.json"
    decoder_save(dec, path, holdout)
    loaded, loaded_holdout = decoder_load(path)
    assert np.array_equal(loaded.summary_mean, dec.summary_mean)
    assert np.array_equal(loaded.summary_std, dec.summary_std)
    assert np.array_equal(loaded.feature_map.frequencies, dec.feature_map.frequencies)
    for w_a, w_b in zip(loaded.regressor.weights, dec.regressor.weights):
        assert np.array_equal(w_a, w_b)
    assert loaded.threshold is None
    assert loaded.task.name == "gaussian"
    assert np.array_equal(loaded_holdout.embeddings, holdout.embeddings)
    s = np.array([0.3, -0.8])
    assert np.array_equal(decoder_embed(loaded, s), decoder_embed(dec, s))


def test_decoder_hash_ignores_holdout(trained_decoder, tmp_path):
    _, dec, holdout, _ = trained_decoder
    path = tmp_path / "decoder.json"
    decoder_save(dec, path, holdout)
    loaded, _ = decoder_load(path)
    assert decoder_hash(loaded) == decoder_hash(dec)


def test_decoder_hash_tracks_threshold(trained_decoder):
    import copy

    _, dec, _, _ = trained_decoder
    base = decoder_hash(dec)
    dec2 = copy.copy(dec)
    dec2.threshold = 0.125
    assert decoder_hash(dec2) != base
    rebuilt, _ = decoder_from_payload(saved_form(decoder_to_payload(dec2)))
    assert rebuilt.threshold == 0.125
    # a rebuilt model never aliases its source
    for a, b in [(rebuilt.summary_mean, dec2.summary_mean),
                 (rebuilt.feature_map.frequencies, dec2.feature_map.frequencies),
                 (rebuilt.regressor.weights[0], dec2.regressor.weights[0])]:
        assert np.array_equal(a, b) and not np.shares_memory(a, b)
    assert rebuilt.task.params == dec2.task.params
    assert rebuilt.task is not dec2.task
    # the amortization audit rests on the hash seeing a last-bits change
    # to a single regressor weight
    dec3 = copy.copy(dec)
    dec3.regressor = copy.deepcopy(dec.regressor)
    dec3.regressor.weights[0][0, 0] += 1e-12
    assert dec3.regressor.weights[0][0, 0] != dec.regressor.weights[0][0, 0]
    assert decoder_hash(dec3) != base
    assert decoder_hash(dec) == base


def test_engine_payload_round_trips(tmp_path):
    analytic = AnalyticGaussianEngine(n_obs=100, dim=2)
    assert engine_from_payload(engine_to_payload(analytic)) == analytic

    mdn = make_mdn_engine(seed=22)
    path = tmp_path / "engine.json"
    engine_save(mdn, path)
    loaded = engine_load(path)
    assert isinstance(loaded, MdnEngine)
    assert loaded.n_components == mdn.n_components
    s = np.array([0.4])
    assert np.array_equal(mdn_log_prob(loaded, s, np.array([[0.1]])),
                          mdn_log_prob(mdn, s, np.array([[0.1]])))
    assert engine_hash(loaded) == engine_hash(mdn)


def _bump(arr, index):
    """Change one entry of arr by its last bit, in place."""
    arr[index] = np.nextafter(arr[index], np.inf)


def _set_negative_zero(dec):
    assert dec.regressor.biases[0][0] == 0.0 and not np.signbit(dec.regressor.biases[0][0])
    dec.regressor.biases[0][0] = -0.0


def _reshape_frequencies(dec):
    fm = dec.feature_map
    fm.frequencies = fm.frequencies.reshape(fm.dim, fm.n_features)


DECODER_EDITS = {
    "frequencies": lambda d: _bump(d.feature_map.frequencies, (4, 1)),
    "phases": lambda d: _bump(d.feature_map.phases, 2),
    "bandwidth": lambda d: setattr(d.feature_map, "bandwidth",
                                   float(np.nextafter(d.feature_map.bandwidth, np.inf))),
    "weights": lambda d: _bump(d.regressor.weights[1], (3, 4)),
    "biases": lambda d: _bump(d.regressor.biases[1], 5),
    "summary_mean": lambda d: _bump(d.summary_mean, 1),
    "summary_std": lambda d: _bump(d.summary_std, 0),
    "threshold": lambda d: setattr(d, "threshold", float(np.nextafter(d.threshold, np.inf))),
    "weight_plus_1e-12": lambda d: d.regressor.weights[0].__setitem__(
        (0, 0), d.regressor.weights[0][0, 0] + 1e-12),
    "negative_zero": _set_negative_zero,
    "same_bytes_other_shape": _reshape_frequencies,
    "threshold_none": lambda d: setattr(d, "threshold", None),
    "task_params": lambda d: setattr(d, "task", gaussian_task(d=2, n_obs=21)),
}


@pytest.mark.parametrize("edit", sorted(DECODER_EDITS))
def test_decoder_hash_sees_every_field(edit):
    dec, _ = fixed_decoder()
    base = decoder_hash(dec)
    edited = copy.deepcopy(dec)
    DECODER_EDITS[edit](edited)
    assert decoder_hash(edited) != base
    assert decoder_hash(dec) == base


MDN_EDITS = {
    "input_mean": lambda e: _bump(e.input_mean, 0),
    "input_std": lambda e: _bump(e.input_std, 0),
    "weights": lambda e: _bump(e.mlp.weights[1], (2, 7)),
    "biases": lambda e: _bump(e.mlp.biases[0], 3),
}


@pytest.mark.parametrize("edit", sorted(MDN_EDITS))
def test_engine_hash_sees_every_field(edit):
    engine = make_mdn_engine(seed=23)
    base = engine_hash(engine)
    edited = copy.deepcopy(engine)
    MDN_EDITS[edit](edited)
    assert engine_hash(edited) != base
    assert engine_hash(engine) == base


def test_model_hashes_ignore_memory_layout():
    dec, _ = fixed_decoder()
    engine = make_mdn_engine(seed=23)
    dec_f, engine_f = copy.deepcopy(dec), copy.deepcopy(engine)
    dec_f.feature_map.frequencies = np.asfortranarray(dec.feature_map.frequencies)
    dec_f.regressor.weights = [np.asfortranarray(w) for w in dec.regressor.weights]
    engine_f.mlp.weights = [np.asfortranarray(w) for w in engine.mlp.weights]
    assert not dec_f.feature_map.frequencies.flags.c_contiguous
    assert not dec_f.regressor.weights[0].flags.c_contiguous
    assert not engine_f.mlp.weights[1].flags.c_contiguous
    assert decoder_hash(dec_f) == decoder_hash(dec)
    assert engine_hash(engine_f) == engine_hash(engine)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_hashes_refuse_non_finite_parameters(value):
    dec, _ = fixed_decoder()
    dec.regressor.weights[0][1, 1] = value
    with pytest.raises(NumericalError):
        decoder_hash(dec)
    engine = make_mdn_engine(seed=23)
    engine.input_std[0] = value
    with pytest.raises(NumericalError):
        engine_hash(engine)


@pytest.mark.parametrize("kind", ["decoder", "engine"])
def test_a_failed_save_leaves_no_file_and_keeps_the_old_one(tmp_path, kind):
    dec, holdout = fixed_decoder()
    engine = make_mdn_engine(seed=23)
    path = tmp_path / f"{kind}.json"
    save = ((lambda: decoder_save(dec, path, holdout)) if kind == "decoder"
            else (lambda: engine_save(engine, path)))
    save()
    old = path.read_bytes()
    dec.regressor.weights[1][0, 2] = np.nan
    engine.mlp.weights[1][0, 2] = np.nan
    with pytest.raises(NumericalError):
        save()
    assert path.read_bytes() == old
    path.unlink()
    with pytest.raises(NumericalError):
        save()
    assert list(tmp_path.iterdir()) == []


def _old_mlp_payload(mlp):
    return {"kind": "mlp", "layer_dims": list(mlp.layer_dims), "activation": "tanh",
            "weights": [hex_encoded(w) for w in mlp.weights],
            "biases": [hex_encoded(b) for b in mlp.biases]}


def _with_dec_mirror(obj):
    """A saved payload in the older format, whose arrays also carried a
    ``dec`` list of the values' reprs after their ``hex`` list."""
    if isinstance(obj, dict):
        if "hex" in obj:
            return {**obj, "dec": [repr(float.fromhex(h)) for h in obj["hex"]]}
        return {k: _with_dec_mirror(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_with_dec_mirror(v) for v in obj]
    return obj


def _arrays_equal(a, b):
    flat_a, flat_b = [], []
    map_arrays(a, flat_a.append)
    map_arrays(b, flat_b.append)
    return len(flat_a) == len(flat_b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(flat_a, flat_b))


def test_files_with_the_dec_mirror_still_load(tmp_path):
    dec, holdout = fixed_decoder()
    engine = make_mdn_engine(seed=23)
    decoder_save(dec, tmp_path / "decoder.json", holdout)
    engine_save(engine, tmp_path / "engine.json")
    for name in ("decoder.json", "engine.json"):
        saved = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        old = _with_dec_mirror(saved)
        assert old != saved and '"dec": ["' in json.dumps(old)
        (tmp_path / f"old-{name}").write_text(json.dumps(old), encoding="utf-8")

    dec_old, holdout_old = decoder_load(tmp_path / "old-decoder.json")
    assert _arrays_equal(decoder_to_payload(dec_old, holdout_old),
                         decoder_to_payload(dec, holdout))
    assert decoder_hash(dec_old) == decoder_hash(dec)
    engine_old = engine_load(tmp_path / "old-engine.json")
    assert _arrays_equal(engine_to_payload(engine_old), engine_to_payload(engine))
    assert engine_hash(engine_old) == engine_hash(engine)


def test_loads_refuse_non_finite_values(tmp_path):
    dec, holdout = fixed_decoder()
    decoder_save(dec, tmp_path / "decoder.json", holdout)
    engine_save(make_mdn_engine(seed=23), tmp_path / "engine.json")
    saved_dec = json.loads((tmp_path / "decoder.json").read_text(encoding="utf-8"))
    saved_engine = json.loads((tmp_path / "engine.json").read_text(encoding="utf-8"))
    bad_files = []
    for bad in ("nan", "inf", "-inf"):
        for edit in (lambda p: p["threshold"]["hex"],
                     lambda p: p["regressor"]["biases"][0]["hex"],
                     lambda p: p["holdout"]["embeddings"]["hex"]):
            payload = copy.deepcopy(saved_dec)
            edit(payload)[0] = bad
            bad_files.append(("decoder", payload))
        for edit in (lambda p: p["mlp"]["weights"][1]["hex"],
                     lambda p: p["input_std"]["hex"]):
            payload = copy.deepcopy(saved_engine)
            edit(payload)[0] = bad
            bad_files.append(("engine", payload))
    for n, (kind, payload) in enumerate(bad_files):
        path = tmp_path / f"bad-{n}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(NumericalError):
            (decoder_load if kind == "decoder" else engine_load)(path)


def _shrink_feature_map(dec):
    # a consistent 5-feature map under a regressor that still outputs 6
    fm = dec.feature_map
    fm.n_features, fm.frequencies, fm.phases = 5, fm.frequencies[:5], fm.phases[:5]


MISSHAPEN_DECODERS = {
    "bias": lambda d: d.regressor.biases.__setitem__(0, np.zeros(1)),
    "weight": lambda d: d.regressor.weights.__setitem__(1, d.regressor.weights[1][:, :4]),
    "layer_count": lambda d: d.regressor.weights.pop(),
    "frequencies": lambda d: setattr(d.feature_map, "frequencies",
                                     d.feature_map.frequencies[:, :1]),
    "phases": lambda d: setattr(d.feature_map, "phases", d.feature_map.phases[:1]),
    "summary_mean": lambda d: setattr(d, "summary_mean", np.zeros(3)),
    "summary_std": lambda d: setattr(d, "summary_std", d.summary_std[:1]),
    "regressor_output": _shrink_feature_map,
}


@pytest.mark.parametrize("edit", sorted(MISSHAPEN_DECODERS))
def test_decoder_load_rejects_arrays_that_disagree_with_its_dimensions(tmp_path, edit):
    # broadcasting would let such a file load and answer adapt queries
    dec, holdout = fixed_decoder()
    MISSHAPEN_DECODERS[edit](dec)
    decoder_save(dec, tmp_path / "decoder.json", holdout)
    with pytest.raises(ValueError):
        decoder_load(tmp_path / "decoder.json")


MISSHAPEN_ENGINES = {
    "input_mean": lambda e: setattr(e, "input_mean", np.zeros(2)),
    "input_std": lambda e: setattr(e, "input_std", np.ones(2)),
    "n_components": lambda e: setattr(e, "n_components", e.n_components + 1),
    "bias": lambda e: e.mlp.biases.__setitem__(1, e.mlp.biases[1][:-1]),
}


@pytest.mark.parametrize("edit", sorted(MISSHAPEN_ENGINES))
def test_engine_load_rejects_arrays_that_disagree_with_its_dimensions(tmp_path, edit):
    engine = make_mdn_engine(seed=23)
    MISSHAPEN_ENGINES[edit](engine)
    engine_save(engine, tmp_path / "engine.json")
    with pytest.raises(ValueError):
        engine_load(tmp_path / "engine.json")


MISSING_ENGINE_KEYS = {
    "variant": lambda saved: saved.pop("variant"),
    "input_std": lambda saved: saved.pop("input_std"),
    "weights": lambda saved: saved["mlp"].pop("weights"),
}


@pytest.mark.parametrize("key", sorted(MISSING_ENGINE_KEYS))
def test_engine_load_names_a_key_the_file_lacks(tmp_path, key):
    path = tmp_path / "engine.json"
    engine_save(make_mdn_engine(seed=23), path)
    saved = json.loads(path.read_text(encoding="utf-8"))
    MISSING_ENGINE_KEYS[key](saved)
    path.write_text(json.dumps(saved), encoding="utf-8")
    with pytest.raises(ValueError, match=f"has no key '{key}'"):
        engine_load(path)


def test_saved_files_keep_the_nested_hex_format(tmp_path):
    dec, holdout = fixed_decoder()
    fm = dec.feature_map
    old_decoder = {
        "kind": "decoder",
        "task": {"name": dec.task.name, "params": dec.task.params},
        "feature_map": {"kind": "feature_map", "dim": fm.dim, "n_features": fm.n_features,
                        "bandwidth": hex_encoded(np.array([fm.bandwidth])),
                        "frequencies": hex_encoded(fm.frequencies),
                        "phases": hex_encoded(fm.phases)},
        "regressor": _old_mlp_payload(dec.regressor),
        "summary_mean": hex_encoded(dec.summary_mean),
        "summary_std": hex_encoded(dec.summary_std),
        "threshold": hex_encoded(np.array([dec.threshold])),
        "holdout": {"summaries": hex_encoded(holdout.summaries),
                    "embeddings": hex_encoded(holdout.embeddings)},
    }
    decoder_save(dec, tmp_path / "decoder.json", holdout)
    assert (tmp_path / "decoder.json").read_text(encoding="utf-8") == json.dumps(old_decoder)

    engine = make_mdn_engine(seed=23)
    old_engine = {"kind": "engine", "variant": "mdn", "mlp": _old_mlp_payload(engine.mlp),
                  "n_components": engine.n_components, "theta_dim": engine.theta_dim,
                  "input_mean": hex_encoded(engine.input_mean),
                  "input_std": hex_encoded(engine.input_std)}
    engine_save(engine, tmp_path / "engine.json")
    assert (tmp_path / "engine.json").read_text(encoding="utf-8") == json.dumps(old_engine)


def test_engine_payload_rejects_garbage():
    with pytest.raises(ValueError):
        engine_from_payload({"kind": "decoder"})
    with pytest.raises(ValueError):
        engine_from_payload({"kind": "engine", "variant": "mystery"})
    with pytest.raises(TypeError):
        engine_to_payload(object())
