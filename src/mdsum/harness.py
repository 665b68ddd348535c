"""Declarative experiment harness.

A single config document drives the whole pipeline:

    simulate pool -> fit feature map + decoder -> calibrate gate
    -> train/choose posterior engine -> evaluate contamination grid
    -> results CSV + manifest

Every stage artifact is cached in the output directory under a content key
derived from the part of the config that affects it and ARTIFACT_VERSION,
so stages are skippable and a run whose models are cached reads no pool;
the results CSV and manifest are keyed by the whole config and
ARTIFACT_VERSION. All randomness is derived from (master_seed, stage tag,
dataset index); with ordered row emission this makes the results CSV
byte-identical for a given config at any parallelism level. Stage timings
go to the manifest, never to the CSV.

A config is one JSON document holding only the values its callers set;
the rest (the gate and coverage levels and the mixture size here, the
learning rate and batch size in nn, the engine in the task's record) are
constants.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .adaptation import adapt, calibrate_threshold, detect
from .contamination import ContaminationSpec, apply_contamination
from .inference import (AnalyticGaussianEngine, decoder_hash, decoder_load, decoder_save,
                        engine_hash, engine_load, engine_save, posterior_sample,
                        train_decoder, train_mdn)
from .kernels import build_feature_map, mean_embedding, median_heuristic
from .metrics import coverage, predictive_mmd, reference_mmds, rmse, summary_oracle_distance
from .metrics import sample_mmd  # noqa: F401  (perfbench/tracing.py patches sample_mmd here)
from .nn import BATCH_SIZE, LEARNING_RATE
from .simulators import TASKS, build_training_pool, load_pool, make_task, save_pool
from .util import NumericalError, canonical_json, derive_rng, replacing, sha256_hex
from . import __version__

CSV_HEADER = ("task,method,eps,delta,seed,rmse,coverage,posterior_mmd,"
              "predictive_mmd,summary_oracle_dist,detected")

MDN_COMPONENTS = 5
# Raise whenever code changes what any stage writes or what the results CSV
# holds: every cache key folds it in, so no file from older code is served.
# Files under old keys stay where they are; delete the directory to clear them.
ARTIFACT_VERSION = 3

_METHODS = ("npe_plain", "npe_mds")
_COUNTS = ("d", "obs_dim", "n_obs", "horizon", "n_train", "n_features", "max_epochs",
           "patience", "n_test_datasets", "n_posterior_samples", "n_predictive")


@dataclass
class ExperimentConfig:
    task: str = "gaussian"
    d: int = 2  # gaussian location dimension
    obs_dim: int = 5  # factor observation dimension
    n_obs: int = 100  # rows per dataset
    horizon: int | None = None  # trajectory length (the task record's default)
    n_train: int | None = None  # simulation pool size (the task record's default)
    n_features: int = 512
    holdout_frac: float = 0.05
    gate: bool = True
    max_epochs: int = 500
    patience: int = 20
    contamination: list = field(default_factory=lambda: [{"eps": 0.0, "delta": 0.0}])
    methods: list = field(default_factory=lambda: list(_METHODS))
    n_test_datasets: int = 100
    n_posterior_samples: int = 1000
    n_predictive: int = 200
    master_seed: int = 0

    # fixed levels, readable but not settable from a config document
    alpha: ClassVar[float] = 0.05  # gate false-alarm rate
    coverage_alpha: ClassVar[float] = 0.05  # credible level of the coverage metric


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config against its task's TASKS record, read at
    call time; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ValueError(f"config document must be a mapping, got {type(raw).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    cfg = ExperimentConfig(**raw)
    if cfg.task not in TASKS:
        raise ValueError(f"unknown task {cfg.task!r} (expected one of {tuple(TASKS)})")
    record = TASKS[cfg.task]
    foreign = sorted({k for r in TASKS.values() for k in r.sizes if k in raw} - set(record.sizes))
    if foreign:
        raise ValueError(f"{', '.join(foreign)} does not apply to task {cfg.task!r}")
    if cfg.horizon is None:
        cfg.horizon = record.horizon
    if cfg.n_train is None:
        cfg.n_train = record.n_train
    if not isinstance(cfg.gate, bool):
        raise ValueError(f"gate must be true or false, got {cfg.gate!r}")
    if not _is_int(cfg.master_seed):
        raise ValueError(f"master_seed must be an integer, got {cfg.master_seed!r}")
    for name in _COUNTS:
        value = getattr(cfg, name)
        if value is not None and not (_is_int(value) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if cfg.n_obs < 2:
        raise ValueError(f"n_obs must be >= 2 (the clean dataset is the predictive_mmd "
                         f"kernel's reference), got {cfg.n_obs}")
    if cfg.n_predictive < 2:
        raise ValueError(f"n_predictive must be >= 2 (predictive_mmd compares replicates), "
                         f"got {cfg.n_predictive}")
    if not isinstance(cfg.methods, list) or not cfg.methods:
        raise ValueError("methods must be a non-empty list")
    for m in cfg.methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r} (expected subset of {_METHODS})")
    if len(set(cfg.methods)) != len(cfg.methods):
        raise ValueError(f"methods must not repeat, got {cfg.methods}")
    if not _is_number(cfg.holdout_frac) or not (0.0 < cfg.holdout_frac < 1.0):
        raise ValueError(f"holdout_frac must be a number in (0, 1), got {cfg.holdout_frac!r}")
    if not isinstance(cfg.contamination, list) or not cfg.contamination:
        raise ValueError("contamination must be a non-empty list of cells")
    cells = []
    kind = record.contamination
    for cell in cfg.contamination:
        if not isinstance(cell, dict):
            raise ValueError(f"contamination cells must be mappings, got {cell!r}")
        extra = sorted(set(cell) - {"eps", "delta"})
        if extra:
            raise ValueError(f"unknown contamination keys: {', '.join(extra)} (a cell sets "
                             f"eps and delta of the task's one kind, {kind!r})")
        for name in ("eps", "delta"):
            if not _is_number(cell.get(name, 0.0)):
                raise ValueError(f"contamination {name} must be a number, got {cell[name]!r}")
        cells.append({"kind": kind, "eps": float(cell.get("eps", 0.0)),
                      "delta": float(cell.get("delta", 0.0))})
    cfg.contamination = cells
    # eager validation of eps ranges
    for cell in cells:
        ContaminationSpec(kind=cell["kind"], eps=cell["eps"], delta=cell["delta"])
    return cfg


def config_load(path) -> ExperimentConfig:
    """Read a config from a JSON file."""
    return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def _key(parts: dict) -> str:
    return sha256_hex(canonical_json({**parts, "artifact_version": ARTIFACT_VERSION}))


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 over the config and ARTIFACT_VERSION, which key its results."""
    return _key(config_to_dict(cfg))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _pool_key(cfg: ExperimentConfig) -> str:
    parts = {"task": cfg.task, "d": cfg.d, "obs_dim": cfg.obs_dim, "n_obs": cfg.n_obs,
             "horizon": cfg.horizon, "n_train": cfg.n_train, "master_seed": cfg.master_seed}
    return _key(parts)[:16]

def _decoder_key(cfg: ExperimentConfig) -> str:
    parts = {"pool": _pool_key(cfg), "n_features": cfg.n_features,
             "holdout_frac": cfg.holdout_frac, "alpha": cfg.alpha,
             "learning_rate": LEARNING_RATE, "batch_size": BATCH_SIZE,
             "max_epochs": cfg.max_epochs, "patience": cfg.patience}
    return _key(parts)[:16]

def _engine_key(cfg: ExperimentConfig) -> str:
    parts = {"pool": _pool_key(cfg), "engine": TASKS[cfg.task].engine,
             "mdn_components": MDN_COMPONENTS, "learning_rate": LEARNING_RATE,
             "batch_size": BATCH_SIZE, "max_epochs": cfg.max_epochs,
             "patience": cfg.patience}
    return _key(parts)[:16]


def build_task(cfg: ExperimentConfig):
    """The config's task from exactly the size keys it takes, plus the
    params its record freezes from the master seed (a factor loading)."""
    record = TASKS[cfg.task]
    params = {key: getattr(cfg, key) for key in record.sizes}
    if record.frozen is not None:
        params.update(record.frozen(params, cfg.master_seed))
    return make_task(cfg.task, **params)


def _stage_paths(cfg: ExperimentConfig, out_dir: Path) -> dict:
    return {"pool": out_dir / f"pool-{_pool_key(cfg)}.npz",
            "decoder": out_dir / f"decoder-{_decoder_key(cfg)}.json",
            "engine": out_dir / f"engine-{_engine_key(cfg)}.json"}


def needs_pool(cfg: ExperimentConfig, out_dir: Path) -> bool:
    """Whether a stage must train: the pool is read only then, and once for
    both stages."""
    paths = _stage_paths(cfg, out_dir)
    return not paths["decoder"].exists() or (
        TASKS[cfg.task].engine != "analytic" and not paths["engine"].exists())


def stage_pool(cfg: ExperimentConfig, out_dir: Path, task=None):
    path = _stage_paths(cfg, out_dir)["pool"]
    if path.exists():
        return load_pool(path), path
    if task is None:
        task = build_task(cfg)
    pool = build_training_pool(task, cfg.n_train, cfg.master_seed)
    save_pool(pool, path)
    return pool, path


def stage_decoder(cfg: ExperimentConfig, out_dir: Path, pool=None, task=None):
    """(decoder, None, path): the cached decoder, or one trained, calibrated
    on its holdout and then saved without it. The None stands where the
    holdout was, because perfbench unpacks three values (_setup_once)."""
    path = _stage_paths(cfg, out_dir)["decoder"]
    if path.exists():
        dec, _ = decoder_load(path)
        return dec, None, path
    if pool is None:
        pool, _ = stage_pool(cfg, out_dir, task=task)
    seed = cfg.master_seed
    rows = pool.datasets.reshape(-1, pool.datasets.shape[2])
    bandwidth = median_heuristic(rows, rng=derive_rng(seed, "bandwidth"))
    fm = build_feature_map(pool.datasets.shape[2], cfg.n_features, bandwidth,
                           derive_rng(seed, "feature-map"))
    dec, holdout, _report = train_decoder(pool, fm, derive_rng(seed, "decoder"),
                                          cfg.max_epochs, cfg.patience,
                                          holdout_frac=cfg.holdout_frac)
    calibrate_threshold(dec, holdout, alpha=cfg.alpha)
    decoder_save(dec, path)
    return dec, None, path


def stage_engine(cfg: ExperimentConfig, out_dir: Path, pool=None, task=None):
    path = _stage_paths(cfg, out_dir)["engine"]
    if path.exists():
        return engine_load(path), path
    if TASKS[cfg.task].engine == "analytic":
        engine = AnalyticGaussianEngine(n_obs=cfg.n_obs, dim=cfg.d)
    else:
        if pool is None:
            pool, _ = stage_pool(cfg, out_dir, task=task)
        engine, _report = train_mdn(pool, MDN_COMPONENTS, derive_rng(cfg.master_seed, "mdn"),
                                    cfg.max_epochs, cfg.patience)
    engine_save(engine, path)
    return engine, path


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class _EvalContext:
    cfg: ExperimentConfig
    task: object
    dec: object
    engine: object


_CTX: _EvalContext | None = None


def _format_float(x: float) -> str:
    return repr(float(x))


def _eval_item(item):
    """One (grid cell, test dataset) pair -> (one CSV line per method, the
    (decoder_hash, engine_hash) of the models this process evaluated with).

    The hashes are taken after the rows, so that run_pipeline's
    amortization audit also covers the copies forked workers hold."""
    cell_idx, j = item
    ctx = _CTX
    cfg, task, dec, engine = ctx.cfg, ctx.task, ctx.dec, ctx.engine
    cell = cfg.contamination[cell_idx]
    spec = ContaminationSpec(kind=cell["kind"], eps=cell["eps"], delta=cell["delta"])
    seed = cfg.master_seed

    rng_data = derive_rng(seed, "test-data", cell_idx, j)
    theta_star = task.prior_sample(rng_data)
    clean = task.simulate(theta_star, rng_data)
    observed = apply_contamination(spec, task, clean,
                                   derive_rng(seed, "contaminate", cell_idx, j))
    s_oracle = task.summary(clean)
    s_tilde = task.summary(observed)
    obs_emb = mean_embedding(dec.feature_map, observed)
    statistic, flagged = detect(dec, s_tilde, obs_emb)

    ref_samples = None
    if isinstance(engine, AnalyticGaussianEngine):  # the exact posterior is the reference
        ref_samples = posterior_sample(engine, s_oracle, cfg.n_posterior_samples,
                                       derive_rng(seed, "reference", cell_idx, j))

    # each method draws its samples from its own stream, then both methods
    # are scored in one call against each reference
    queries, sample_sets = [], []
    for method in cfg.methods:
        s_query = s_tilde if method == "npe_plain" else adapt(dec, observed, gate=cfg.gate).s_star
        queries.append(s_query)
        sample_sets.append(posterior_sample(engine, s_query, cfg.n_posterior_samples,
                                            derive_rng(seed, "posterior", cell_idx, j, method)))
    if ref_samples is None:
        post_mmds = [""] * len(cfg.methods)
    else:
        post_mmds = [_format_float(m) for m in reference_mmds(sample_sets, ref_samples)]
    pred_mmds = predictive_mmd(task, sample_sets, clean, cfg.n_predictive,
                               [derive_rng(seed, "predictive", cell_idx, j, method)
                                for method in cfg.methods])

    lines = []
    for method, s_query, samples, row_pmmd, row_pred in zip(cfg.methods, queries, sample_sets,
                                                           post_mmds, pred_mmds):
        row_rmse = rmse(samples, theta_star)
        row_cov = coverage(samples, theta_star, alpha=cfg.coverage_alpha)
        row_dist = summary_oracle_distance(s_query, s_oracle)
        lines.append(",".join([
            task.name, method, _format_float(cell["eps"]), _format_float(cell["delta"]),
            str(j), _format_float(row_rmse), _format_float(row_cov), row_pmmd,
            _format_float(row_pred), _format_float(row_dist),
            "true" if flagged else "false",
        ]))
    return lines, (decoder_hash(dec), engine_hash(engine))


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""


def _run_stage(name: str, seed: int, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (NumericalError, ValueError) as err:
        # keep the type so callers can still map it to an exit code
        raise type(err)(f"stage {name!r} failed (master_seed={seed}): {err}") from err
    except Exception as err:
        raise StageError(f"stage {name!r} failed (master_seed={seed}): {err}") from err


def run_pipeline(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> dict:
    """Run every stage (cache-aware) and write results + manifest.

    Returns the manifest dict; the CSV lands at results-<config hash>.csv
    (and a results.csv convenience copy) inside out_dir. On a stage failure
    an incomplete manifest naming the failed stage is written before the
    error propagates.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    full_hash = config_hash(cfg)
    csv_path = out / f"results-{full_hash[:16]}.csv"
    manifest_path = out / f"manifest-{full_hash[:16]}.json"
    seed = cfg.master_seed

    manifest = {
        "config": config_to_dict(cfg),
        "config_hash": full_hash,
        "version": __version__,
        "artifact_version": ARTIFACT_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "complete": False,
        "stage_keys": {"pool": _pool_key(cfg), "decoder": _decoder_key(cfg),
                       "engine": _engine_key(cfg)},
        "jobs": jobs,
    }

    def _flush_manifest():
        with replacing(manifest_path) as fh:
            fh.write(json.dumps(manifest, indent=2).encode("utf-8"))

    paths = _stage_paths(cfg, out)
    try:
        t0 = time.perf_counter()
        task = _run_stage("task", seed, build_task, cfg)
        pool = None
        if needs_pool(cfg, out):
            pool, _ = _run_stage("simulate", seed, stage_pool, cfg, out, task=task)
        timings["pool_ms"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        dec, _, _ = _run_stage("decoder", seed, stage_decoder, cfg, out, pool=pool, task=task)
        timings["decoder_ms"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        engine, _ = _run_stage("engine", seed, stage_engine, cfg, out, pool=pool, task=task)
        timings["engine_ms"] = (time.perf_counter() - t0) * 1e3

        hashes = (decoder_hash(dec), engine_hash(engine))
        manifest["artifacts"] = {**{stage: p.name for stage, p in paths.items()},
                                 "results": csv_path.name}
        manifest["decoder_hash"], manifest["engine_hash"] = hashes

        t0 = time.perf_counter()
        if not csv_path.exists():
            _run_stage("evaluate", seed, _evaluate_to_csv, cfg, task, dec, engine,
                       csv_path, jobs, hashes)
        timings["evaluate_ms"] = (time.perf_counter() - t0) * 1e3
    except Exception as err:
        manifest["error"] = str(err)
        _flush_manifest()
        raise

    csv_bytes = csv_path.read_bytes()
    manifest["complete"] = True
    manifest["n_rows"] = csv_bytes.count(b"\n") - 1
    manifest["timings_ms"] = timings
    _flush_manifest()
    with replacing(out / "results.csv") as fh:
        fh.write(csv_bytes)
    return manifest


def _evaluate_to_csv(cfg: ExperimentConfig, task, dec, engine, csv_path: Path,
                     jobs: int, frozen_hashes: tuple) -> None:
    items = [(ci, j) for ci in range(len(cfg.contamination))
             for j in range(cfg.n_test_datasets)]
    global _CTX
    _CTX = _EvalContext(cfg=cfg, task=task, dec=dec, engine=engine)
    try:
        if jobs == 1:
            results = [_eval_item(item) for item in items]
        else:
            # fork so workers inherit the prepared context; every item owns
            # its RNG streams, so worker count cannot change the rows
            pool_exec = concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=multiprocessing.get_context("fork"))
            with pool_exec as ex:
                results = list(ex.map(_eval_item, items, chunksize=4))
    finally:
        _CTX = None
    # amortization audit: adaptation must never touch the frozen models,
    # in this process or in any worker
    if any(hashes != frozen_hashes for _lines, hashes in results):
        raise StageError("frozen model artifacts changed during evaluation")
    rows = [CSV_HEADER] + [line for lines, _hashes in results for line in lines]
    with replacing(csv_path) as fh:  # an abort never leaves a partial CSV
        fh.write("".join(row + "\n" for row in rows).encode("utf-8"))


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

_NUMERIC_COLS = ("rmse", "coverage", "posterior_mmd", "predictive_mmd",
                 "summary_oracle_dist")


def read_results_strings(path):
    """(column names, rows of string values) of a results CSV, whose header
    must be CSV_HEADER; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    names = CSV_HEADER.split(",")
    for parts in rows:
        if len(parts) != len(names):
            raise ValueError(f"malformed CSV line in {path}: {','.join(parts)!r}")
    return names, rows


def read_results_csv(path):
    """Parse a results CSV into a list of row dicts."""
    names, lines = read_results_strings(path)
    rows = []
    for parts in lines:
        row = dict(zip(names, parts))
        for col in _NUMERIC_COLS:
            row[col] = float(row[col]) if row[col] != "" else None
        row["eps"], row["delta"] = float(row["eps"]), float(row["delta"])
        row["seed"] = int(row["seed"])
        row["detected"] = row["detected"] == "true"
        rows.append(row)
    return rows


def _median_iqr(values):
    arr = np.asarray(values, dtype=np.float64)
    return (float(np.median(arr)),
            float(np.quantile(arr, 0.75) - np.quantile(arr, 0.25)))


def summarize(csv_paths):
    """Aggregate one or more results CSVs per (task, method, eps, delta) cell.

    Returns (summary_rows, table_text). Each summary row carries n, median
    and IQR for the numeric metrics, and the detection rate.
    """
    rows = []
    for p in csv_paths:
        rows.extend(read_results_csv(p))
    groups: dict = {}
    for r in rows:
        groups.setdefault((r["task"], r["method"], r["eps"], r["delta"]), []).append(r)

    summary_rows = []
    for key in sorted(groups):
        cell = groups[key]
        out = {"task": key[0], "method": key[1], "eps": key[2], "delta": key[3],
               "n": len(cell), "detected_rate": sum(r["detected"] for r in cell) / len(cell)}
        for col in ("rmse", "coverage", "posterior_mmd", "predictive_mmd",
                    "summary_oracle_dist"):
            vals = [r[col] for r in cell if r[col] is not None]
            med, iqr = _median_iqr(vals) if vals else (None, None)
            out[f"{col}_median"], out[f"{col}_iqr"] = med, iqr
        summary_rows.append(out)

    cols = ["task", "method", "eps", "delta", "n", "rmse_median", "rmse_iqr",
            "coverage_median", "posterior_mmd_median", "predictive_mmd_median",
            "summary_oracle_dist_median", "detected_rate"]
    widths = {c: max(len(c), 12) for c in cols}
    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in summary_rows:
        lines.append("  ".join(fmt(r.get(c)).ljust(widths[c]) for c in cols))
    table = "\n".join(lines)
    return summary_rows, table


def write_summary_csv(summary_rows, path) -> None:
    cols = ["task", "method", "eps", "delta", "n",
            "rmse_median", "rmse_iqr", "coverage_median", "coverage_iqr",
            "posterior_mmd_median", "posterior_mmd_iqr",
            "predictive_mmd_median", "predictive_mmd_iqr",
            "summary_oracle_dist_median", "summary_oracle_dist_iqr",
            "detected_rate"]
    with replacing(path) as fh:
        fh.write((",".join(cols) + "\n").encode("utf-8"))
        for r in summary_rows:
            vals = ("" if v is None else repr(v) if isinstance(v, float) else str(v)
                    for v in map(r.get, cols))
            fh.write((",".join(vals) + "\n").encode("utf-8"))
