"""Test-time summary adaptation with a calibrated misspecification gate.

Given a frozen decoder and an observed dataset, the pipeline is:

1. check the observations' shape against the decoder's task, then compute
   the observed summary s0 with the summary function of the decoder's own
   task (``dec.task``, built once when the decoder is trained or loaded)
   and the dataset's empirical mean embedding;
2. detect: compare the statistic ||mu(s0) - mu_obs||^2 against a threshold
   calibrated on clean held-out simulations (the (1 - alpha) quantile of the
   same statistic);
3. only if flagged, minimize ||mu(s) - mu_obs||^2 over s starting from s0
   with L-BFGS (``optimize.lbfgs_minimize``); the caller queries the
   posterior engine at the minimizer instead.

The statistic has one definition, ``_statistic``: the random-feature MMD^2
estimate (``kernels.mmd2_rff``) between the decoded and the observed mean
embeddings. Calibration, detection and both ends of the adaptation use it.

The posterior engine and decoder are never modified; if the optimizer fails
to improve on s0 the original summary is kept. When s0 lies absurdly far
outside the training range (saturating the tanh regressor, hence zero
gradient), the optimizer is started from s0 clipped to a wide standardized
trust band; in-range summaries start exactly at s0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import DecoderEmbedding, HoldoutRecords, decoder_embed, decoder_objective, standardize
from .kernels import mean_embedding, mmd2_rff
from .optimize import lbfgs_minimize
from .simulators import make_task  # noqa: F401  (perfbench/tracing.py patches make_task here)
from .util import check_finite

CLIP_BAND = 8.0  # standardized half-width of the band the optimizer starts in


@dataclass
class AdaptationResult:
    s_initial: np.ndarray
    s_star: np.ndarray
    objective_initial: float
    objective_final: float
    detected: bool  # True when adaptation was triggered
    statistic: float
    threshold: float | None
    iterations: int
    converged: bool


def _statistic(dec: DecoderEmbedding, s, embedding: np.ndarray) -> float:
    """||mu(s) - embedding||^2, the detection statistic and the objective."""
    return mmd2_rff(dec.feature_map, decoder_embed(dec, s), embedding)


def calibrate_threshold(dec: DecoderEmbedding, holdout: HoldoutRecords,
                        alpha: float = 0.05) -> float:
    """Set the detection threshold from clean held-out records.

    The statistic ||mu(s_i) - zbar_i||^2 is computed on every holdout record
    and the threshold is its (1 - alpha) empirical quantile (linear
    interpolation between order statistics). Stores the value on dec.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = holdout.summaries.shape[0]
    if n < 1:
        raise ValueError("holdout is empty")
    stats = np.empty(n)
    for i in range(n):
        stats[i] = _statistic(dec, holdout.summaries[i], holdout.embeddings[i])
    tau = float(np.quantile(stats, 1.0 - alpha, method="linear"))
    dec.threshold = tau
    return tau


def detect(dec: DecoderEmbedding, s0, obs_embedding: np.ndarray):
    """Misspecification check at the observed summary.

    Returns (statistic, flagged). Requires a calibrated threshold. Raises
    NumericalError on a non-finite summary or embedding, whose statistic
    would compare as not flagged.
    """
    if dec.threshold is None:
        raise RuntimeError("detection threshold not calibrated; run calibrate_threshold first")
    check_finite("observed summary", s0)
    check_finite("observed embedding", obs_embedding)
    statistic = _statistic(dec, s0, obs_embedding)
    return statistic, bool(statistic > dec.threshold)


def _optimizer_start(dec: DecoderEmbedding, s0: np.ndarray) -> np.ndarray:
    u0 = standardize(s0, dec.summary_mean, dec.summary_std)
    if np.all(np.abs(u0) <= CLIP_BAND):
        return s0  # in range: start exactly at the observed summary
    u_clipped = np.clip(u0, -CLIP_BAND, CLIP_BAND)
    return dec.summary_mean + dec.summary_std * u_clipped


def adapt(dec: DecoderEmbedding, observations, gate: bool = True) -> AdaptationResult:
    """Full query-side pipeline for one observed dataset.

    With the gate enabled (default), adaptation only runs when the detection
    statistic exceeds the calibrated threshold; otherwise the observed
    summary is returned untouched. With gate=False adaptation always runs
    (used by the consistency and stability checks). The summary function is
    dec.task's. Observations whose shape is not (dec.task.n_obs, the feature
    map's width) raise ValueError before the summary is computed.
    Non-finite observations or summaries raise NumericalError, so the gate
    never lets them through as not flagged.
    """
    observations = np.asarray(observations, dtype=np.float64)
    shape = (dec.task.n_obs, dec.feature_map.dim)
    if observations.shape != shape:
        raise ValueError(f"observations must have shape {shape}, got {observations.shape}")
    check_finite("observations", observations)
    s0 = np.asarray(dec.task.summary(observations), dtype=np.float64)
    check_finite("observed summary", s0)
    obs_emb = mean_embedding(dec.feature_map, observations)

    if gate:
        statistic, triggered = detect(dec, s0, obs_emb)
    else:
        statistic, triggered = _statistic(dec, s0, obs_emb), True

    if not triggered:
        return AdaptationResult(
            s_initial=s0, s_star=s0.copy(), objective_initial=statistic,
            objective_final=statistic, detected=False, statistic=statistic,
            threshold=dec.threshold, iterations=0, converged=True)

    s_star, iters, converged = lbfgs_minimize(decoder_objective(dec, obs_emb),
                                              _optimizer_start(dec, s0))
    final = _statistic(dec, s_star, obs_emb)
    if not np.all(np.isfinite(s_star)) or not (final < statistic):
        # safe fallback: keep the observed summary
        s_star, final, converged = s0.copy(), statistic, False
    return AdaptationResult(
        s_initial=s0, s_star=s_star, objective_initial=statistic,
        objective_final=final, detected=True, statistic=statistic,
        threshold=dec.threshold, iterations=iters, converged=converged)
