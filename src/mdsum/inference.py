"""Amortized inference components: embedding decoder and posterior engines.

The decoder is an MLP regressing a dataset's summary statistic onto the
empirical mean of its random Fourier features, trained once on the
simulation pool and frozen afterwards. Posterior engines answer queries
q(theta | s): either the conjugate closed form for the Gaussian location
task or a trained mixture density network.

Each model has one payload description (``*_to_payload``): JSON values
plus raw float64 arrays. ``util.save_payload`` writes it as JSON with every
array swapped for its shape and the bit-exact ``float.hex`` string of each
value, and ``*_from_payload`` reads that saved form back
(``util.decode_floats``), checking every array's shape, and a decoder's
task, against the model's own dimensions. ``decoder_hash`` and
``engine_hash`` are sha256 over the payload's JSON skeleton, with arrays
replaced by their shapes, followed by each array's little-endian float64
bytes in sorted-key order (``util.payload_hash``). They certify that
test-time adaptation never touches the frozen models without rendering a
single float to text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernels import FeatureMap, feature_map_from_payload, feature_map_to_payload, rff_matrix
from .nn import Mlp, fit_mlp, mlp_forward, mlp_from_payload, mlp_init, mlp_to_payload, mlp_vjp
from .optimize import ObjectiveEval
from .simulators import TaskSpec, TrainingPool, gaussian_posterior, make_task
from .util import check_shape, decode_floats, payload_hash, reads_payload, save_payload

_CHUNK_ELEMS = 2 ** 20  # cap on rows * K per feature chunk: one 8 MB float64 block
_STD_FLOOR = 1e-12

HIDDEN = (256, 256)  # hidden widths of the decoder and MDN networks
LOGSIG_LO = -7.0  # clip of the MDN's log-stddevs
LOGSIG_HI = 3.0


@dataclass
class DecoderEmbedding:
    feature_map: FeatureMap
    regressor: Mlp
    summary_mean: np.ndarray  # (d_s,)
    summary_std: np.ndarray  # (d_s,)
    task: TaskSpec  # whose summary it decodes; saved as its name and params
    threshold: float | None = None  # set by calibrate_threshold


@dataclass
class HoldoutRecords:
    summaries: np.ndarray  # (H, d_s)
    embeddings: np.ndarray  # (H, K)


@dataclass
class AnalyticGaussianEngine:
    n_obs: int
    dim: int


@dataclass
class MdnEngine:
    mlp: Mlp
    n_components: int
    theta_dim: int
    input_mean: np.ndarray
    input_std: np.ndarray


PosteriorEngine = AnalyticGaussianEngine | MdnEngine


def pool_feature_means(fm: FeatureMap, datasets: np.ndarray) -> np.ndarray:
    """Empirical mean embedding of every dataset in a (M, N, d) stack."""
    m, n_obs, obs_dim = datasets.shape
    per = max(1, _CHUNK_ELEMS // (fm.n_features * n_obs))
    out = np.empty((m, fm.n_features))
    for start in range(0, m, per):
        chunk = datasets[start:start + per]
        flat = chunk.reshape(-1, obs_dim)
        feats = rff_matrix(fm, flat).reshape(chunk.shape[0], n_obs, fm.n_features)
        out[start:start + per] = feats.mean(axis=1)
    return out


def standardize(values: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (values - mean) / std


def train_decoder(pool: TrainingPool, fm: FeatureMap, rng: np.random.Generator,
                  max_epochs: int, patience: int, holdout_frac: float = 0.05):
    """Fit the summary -> mean-embedding regressor on a simulation pool.

    A holdout_frac slice of the pool is reserved before training and
    returned for threshold calibration; the regressor never sees it.
    Returns (DecoderEmbedding, HoldoutRecords, TrainReport).
    """
    if not (0.0 < holdout_frac < 1.0):
        raise ValueError(f"holdout_frac must lie in (0, 1), got {holdout_frac}")
    m = pool.summaries.shape[0]
    n_hold = max(1, int(round(holdout_frac * m)))
    if n_hold >= m - 1:
        raise ValueError(f"holdout leaves too few training records (M={m})")
    embeddings = pool_feature_means(fm, pool.datasets)
    perm = rng.permutation(m)
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]

    s_train = pool.summaries[train_idx]
    z_train = embeddings[train_idx]
    mean = s_train.mean(axis=0)
    std = np.maximum(s_train.std(axis=0), _STD_FLOOR)

    mlp = mlp_init([pool.summaries.shape[1], *HIDDEN, fm.n_features], rng)
    report = fit_mlp(mlp, standardize(s_train, mean, std), z_train, max_epochs, patience, rng)

    dec = DecoderEmbedding(feature_map=fm, regressor=mlp, summary_mean=mean,
                           summary_std=std, task=make_task(pool.task_name, **pool.params))
    holdout = HoldoutRecords(summaries=pool.summaries[hold_idx],
                             embeddings=embeddings[hold_idx])
    return dec, holdout, report


def decoder_embed(dec: DecoderEmbedding, s) -> np.ndarray:
    """Model-predicted (K,) mean embedding for a summary."""
    u = standardize(np.asarray(s, dtype=np.float64), dec.summary_mean, dec.summary_std)
    return mlp_forward(dec.regressor, u)


def decoder_objective(dec: DecoderEmbedding, target: np.ndarray):
    """phi(s) = ||mu(s) - target||^2 with its exact gradient in s.

    Returns a callable suitable for the optimize module. Each evaluation
    runs one forward pass; the gradient reuses its activations and chains
    through the input standardization.
    """
    target = np.asarray(target, dtype=np.float64)

    def objective(s: np.ndarray) -> ObjectiveEval:
        u = standardize(s, dec.summary_mean, dec.summary_std)
        out, vjp = mlp_vjp(dec.regressor, u)
        resid = out - target
        value = float(resid @ resid)
        return ObjectiveEval(value, vjp(2.0 * resid) / dec.summary_std)

    return objective


# ---------------------------------------------------------------------------
# Mixture density network engine
# ---------------------------------------------------------------------------

def _mdn_split(engine_dims, outputs: np.ndarray):
    """Split raw MLP outputs into (logits, means, raw log-sigmas)."""
    c, d = engine_dims
    logits = outputs[:, :c]
    means = outputs[:, c:c + c * d].reshape(-1, c, d)
    logsig_raw = outputs[:, c + c * d:].reshape(-1, c, d)
    return logits, means, logsig_raw


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def mdn_loss_grad_factory(n_components: int, theta_dim: int):
    """Mean negative log-likelihood of a diagonal Gaussian mixture, with the
    exact gradient in the raw network outputs.

    Log-stddevs are hard-clipped to [LOGSIG_LO, LOGSIG_HI]; the gradient is
    zero where the clip is active.
    """
    c, d = n_components, theta_dim
    log2pi = np.log(2.0 * np.pi)

    def loss_grad(outputs: np.ndarray, thetas: np.ndarray):
        b = outputs.shape[0]
        logits, means, raw = _mdn_split((c, d), outputs)
        logsig = np.clip(raw, LOGSIG_LO, LOGSIG_HI)
        inv_var = np.exp(-2.0 * logsig)
        diff = thetas[:, None, :] - means  # (B, C, d)
        comp_ll = -0.5 * np.sum(diff * diff * inv_var, axis=2) \
            - np.sum(logsig, axis=2) - 0.5 * d * log2pi  # (B, C)
        logw = _log_softmax(logits)
        joint = logw + comp_ll
        top = joint.max(axis=1, keepdims=True)
        log_mix = top[:, 0] + np.log(np.exp(joint - top).sum(axis=1))
        loss = -float(np.mean(log_mix))

        resp = np.exp(joint - log_mix[:, None])  # responsibilities, rows sum to 1
        w = np.exp(logw)
        d_logits = (w - resp) / b
        d_means = -resp[:, :, None] * diff * inv_var / b
        d_raw = -resp[:, :, None] * (diff * diff * inv_var - 1.0) / b
        d_raw[(raw <= LOGSIG_LO) | (raw >= LOGSIG_HI)] = 0.0

        grad = np.concatenate(
            [d_logits, d_means.reshape(b, c * d), d_raw.reshape(b, c * d)], axis=1)
        return loss, grad

    return loss_grad


def train_mdn(pool: TrainingPool, n_components: int, rng: np.random.Generator,
              max_epochs: int, patience: int):
    """Fit a mixture density network q(theta | s) on a simulation pool.

    Component-mean output biases are seeded with parameter draws from the
    pool and log-sigma biases with the pooled parameter spread, which breaks
    the initial symmetry between components.
    Returns (MdnEngine, TrainReport).
    """
    if n_components < 1:
        raise ValueError(f"n_components must be positive, got {n_components}")
    thetas = pool.thetas
    d = thetas.shape[1]
    mean = pool.summaries.mean(axis=0)
    std = np.maximum(pool.summaries.std(axis=0), _STD_FLOOR)
    inputs = standardize(pool.summaries, mean, std)

    out_dim = n_components * (1 + 2 * d)
    mlp = mlp_init([pool.summaries.shape[1], *HIDDEN, out_dim], rng)
    anchors = thetas[rng.choice(thetas.shape[0], size=n_components, replace=False)]
    spread = np.log(np.maximum(thetas.std(axis=0), 1e-3))
    bias = mlp.biases[-1]
    bias[n_components:n_components + n_components * d] = anchors.reshape(-1)
    bias[n_components + n_components * d:] = np.tile(spread, n_components)

    loss_grad = mdn_loss_grad_factory(n_components, d)
    report = fit_mlp(mlp, inputs, thetas, max_epochs, patience, rng, loss_grad=loss_grad)
    engine = MdnEngine(mlp=mlp, n_components=n_components, theta_dim=d,
                       input_mean=mean, input_std=std)
    return engine, report


def mdn_parameters(engine: MdnEngine, s):
    """Mixture parameters (weights, means, sigmas) at a single summary."""
    u = standardize(np.asarray(s, dtype=np.float64), engine.input_mean, engine.input_std)
    out = mlp_forward(engine.mlp, u)[None, :]
    logits, means, raw = _mdn_split((engine.n_components, engine.theta_dim), out)
    logw = _log_softmax(logits)
    sig = np.exp(np.clip(raw, LOGSIG_LO, LOGSIG_HI))
    return np.exp(logw[0]), means[0], sig[0]


def posterior_sample(engine: PosteriorEngine, s, n_samples: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw n_samples rows from q(theta | s)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if isinstance(engine, AnalyticGaussianEngine):
        mean, var = gaussian_posterior(np.asarray(s, dtype=np.float64), engine.n_obs)
        if mean.shape != (engine.dim,):
            raise ValueError(f"summary must have shape ({engine.dim},), got {mean.shape}")
        return mean + np.sqrt(var) * rng.standard_normal((n_samples, engine.dim))
    if isinstance(engine, MdnEngine):
        w, means, sig = mdn_parameters(engine, s)
        comps = rng.choice(engine.n_components, size=n_samples, p=w)
        eps = rng.standard_normal((n_samples, engine.theta_dim))
        return means[comps] + sig[comps] * eps
    raise TypeError(f"unknown engine type {type(engine).__name__}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def decoder_to_payload(dec: DecoderEmbedding, holdout: HoldoutRecords | None = None) -> dict:
    """The decoder as JSON values and float64 arrays (aliasing the model's)."""
    payload = {
        "kind": "decoder",
        "task": {"name": dec.task.name, "params": dec.task.params},
        "feature_map": feature_map_to_payload(dec.feature_map),
        "regressor": mlp_to_payload(dec.regressor),
        "summary_mean": dec.summary_mean,
        "summary_std": dec.summary_std,
        "threshold": None if dec.threshold is None else np.array([dec.threshold]),
    }
    if holdout is not None:
        payload["holdout"] = {"summaries": holdout.summaries, "embeddings": holdout.embeddings}
    return payload


def _network_from_payload(payload: dict, out_dim: int, what: str) -> Mlp:
    """mlp_from_payload, with the network's output width checked too."""
    mlp = mlp_from_payload(payload)
    if mlp.layer_dims[-1] != out_dim:
        raise ValueError(f"{what} outputs {mlp.layer_dims[-1]} values, expected {out_dim}")
    return mlp


def _input_array(payload: dict, key: str, mlp: Mlp) -> np.ndarray:
    """A per-input standardization array, checked against the input width."""
    return check_shape(key, decode_floats(payload[key]), (mlp.layer_dims[0],))


@reads_payload
def decoder_from_payload(payload: dict):
    """Rebuild (decoder, holdout or None) from a saved payload.

    Every array is decoded afresh (util.decode_floats), and its shape must
    agree with the model's dimensions, as must the task's row and summary
    widths (ValueError).
    """
    if payload.get("kind") != "decoder":
        raise ValueError(f"not a decoder payload: kind={payload.get('kind')!r}")
    threshold = payload["threshold"]
    fm = feature_map_from_payload(payload["feature_map"])
    regressor = _network_from_payload(payload["regressor"], fm.n_features, "regressor")
    task = make_task(payload["task"]["name"], **payload["task"]["params"])
    if (task.obs_dim, task.summary_dim) != (fm.dim, regressor.layer_dims[0]):
        raise ValueError(f"task {task.name} has rows of {task.obs_dim} and summaries of "
                         f"{task.summary_dim}, but the models take {fm.dim} and "
                         f"{regressor.layer_dims[0]}")
    dec = DecoderEmbedding(
        feature_map=fm,
        regressor=regressor,
        summary_mean=_input_array(payload, "summary_mean", regressor),
        summary_std=_input_array(payload, "summary_std", regressor),
        task=task,
        threshold=None if threshold is None else float(decode_floats(threshold)[0]),
    )
    holdout = None
    if "holdout" in payload:
        holdout = HoldoutRecords(
            summaries=decode_floats(payload["holdout"]["summaries"]),
            embeddings=decode_floats(payload["holdout"]["embeddings"]),
        )
    return dec, holdout


def decoder_save(dec: DecoderEmbedding, path, holdout: HoldoutRecords | None = None) -> None:
    save_payload(decoder_to_payload(dec, holdout), path)


def decoder_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return decoder_from_payload(json.load(fh))


def decoder_hash(dec: DecoderEmbedding) -> str:
    """Hash of the model content only (holdout records excluded)."""
    return payload_hash(decoder_to_payload(dec))


def engine_to_payload(engine: PosteriorEngine) -> dict:
    """The engine as JSON values and float64 arrays (aliasing the model's)."""
    if isinstance(engine, AnalyticGaussianEngine):
        return {"kind": "engine", "variant": "analytic_gaussian",
                "n_obs": engine.n_obs, "dim": engine.dim}
    if isinstance(engine, MdnEngine):
        return {
            "kind": "engine", "variant": "mdn",
            "mlp": mlp_to_payload(engine.mlp),
            "n_components": engine.n_components,
            "theta_dim": engine.theta_dim,
            "input_mean": engine.input_mean,
            "input_std": engine.input_std,
        }
    raise TypeError(f"unknown engine type {type(engine).__name__}")


@reads_payload
def engine_from_payload(payload: dict) -> PosteriorEngine:
    """Rebuild an engine from a saved payload; every array is decoded afresh
    (util.decode_floats), and its shape must agree with the engine's
    dimensions (ValueError)."""
    if payload.get("kind") != "engine":
        raise ValueError(f"not an engine payload: kind={payload.get('kind')!r}")
    if payload["variant"] == "analytic_gaussian":
        return AnalyticGaussianEngine(n_obs=int(payload["n_obs"]), dim=int(payload["dim"]))
    if payload["variant"] == "mdn":
        n_components, theta_dim = int(payload["n_components"]), int(payload["theta_dim"])
        mlp = _network_from_payload(payload["mlp"], n_components * (1 + 2 * theta_dim), "mdn")
        return MdnEngine(
            mlp=mlp,
            n_components=n_components,
            theta_dim=theta_dim,
            input_mean=_input_array(payload, "input_mean", mlp),
            input_std=_input_array(payload, "input_std", mlp),
        )
    raise ValueError(f"unknown engine variant {payload['variant']!r}")


def engine_save(engine: PosteriorEngine, path) -> None:
    save_payload(engine_to_payload(engine), path)


def engine_load(path) -> PosteriorEngine:
    with open(path, "r", encoding="utf-8") as fh:
        return engine_from_payload(json.load(fh))


def engine_hash(engine: PosteriorEngine) -> str:
    return payload_hash(engine_to_payload(engine))
