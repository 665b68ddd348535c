"""Minimum-distance summaries for robust amortized inference.

Train a posterior model and a feature-space decoder once, then at query
time detect misspecified observations and adapt their summary statistic by
minimizing the distance between the decoder's predicted mean embedding and
the empirical embedding of the observed data. The frozen models are never
touched by adaptation.
"""

__version__ = "0.1.0"

from .adaptation import AdaptationResult, adapt, calibrate_threshold, detect
from .contamination import ContaminationSpec, apply_contamination
from .harness import ExperimentConfig, config_load, run_pipeline, summarize
from .inference import (AnalyticGaussianEngine, DecoderEmbedding, MdnEngine,
                        decoder_load, decoder_save, engine_load, engine_save,
                        posterior_sample, train_decoder, train_mdn)
from .kernels import (FeatureMap, build_feature_map, mean_embedding, median_heuristic,
                      mmd2_exact, mmd2_rff)
from .metrics import coverage, predictive_mmd, rmse, sample_mmd, summary_oracle_distance
from .simulators import TaskSpec, TrainingPool, build_training_pool, make_task
from .util import NumericalError, derive_rng

__all__ = [
    "AdaptationResult", "AnalyticGaussianEngine", "ContaminationSpec",
    "DecoderEmbedding", "ExperimentConfig", "FeatureMap", "MdnEngine",
    "NumericalError", "TaskSpec", "TrainingPool",
    "adapt", "apply_contamination", "build_feature_map", "build_training_pool",
    "calibrate_threshold", "config_load", "coverage", "decoder_load",
    "decoder_save", "detect", "derive_rng", "engine_load", "engine_save",
    "make_task", "mean_embedding", "median_heuristic", "mmd2_exact", "mmd2_rff",
    "posterior_sample", "predictive_mmd", "rmse", "run_pipeline", "sample_mmd",
    "summarize", "summary_oracle_distance", "train_decoder", "train_mdn",
    "__version__",
]
