"""The three benchmark workloads and the checks on their outputs.

Every workload starts the same way: a cold set-up (simulate the pool, fit
the decoder, calibrate the gate, fit or choose the engine, save), made
SETUPS times in fresh directories, each followed by a timed load of the
saved decoder and engine. The timed phase then repeats whole rounds of the
same operations until the run's seconds have passed, and LOADS_AFTER more
loads close the run:

- oup-serve: one round is a fixed stream of queries, each ``adapt`` with
  the gate on followed by ``posterior_sample``;
- gaussian-grid and sir-grid: one round is a warm ``run_pipeline`` in a
  fresh directory holding links to the set-up's artifacts.

All inputs derive from the seed. It is the grids' master_seed, and it
draws oup-serve's queries.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.stats import binomtest

from mdsum import adaptation, contamination, harness, inference, metrics
from mdsum.util import NumericalError, derive_rng

import tracing

SETUPS = 3  # set-up repeats per run; setup_s is their median
LOADS_AFTER = 2  # loads after the timed phase; load_ms is the median of all loads
N_POSTERIOR = 1000  # posterior draws per oup-serve query (the harness default)
N_QUERIES_PER_KIND = 100  # clean and contaminated datasets per oup-serve round
N_MALFORMED = 2  # datasets with one NaN per oup-serve round
# Width, in standard deviations, of the gate-rate bound. Every oup-serve run
# checks the same decoder's gate, whose clean flag rate measured 0.077 over
# six seeds; at 5 sd a run fails by chance about once in 50 000 (binomial).
GATE_Z = 5.0
MAX_FALLBACK_SHARE = 0.1
OBJECTIVE_RTOL = 1e-9
MMD_RTOL = 1e-3
# Two-sided binomial p below which the clean coverage count (4 datasets x 2
# dims) rejects 0.95. At 1e-5 it fails at 2 or fewer of 8, which an exact
# posterior does with probability 4e-7; at 1e-3 it would fail at 4 of 8,
# one run in 2700 by chance.
COVERAGE_P = 1e-5
N_DIRECTION = 60  # contaminated gaussian datasets in the direction check

# Sizes are chosen so that SETUPS set-ups, the loads and one timed phase
# end within about 40 s on 2 cores. patience == max_epochs makes every fit
# run all its epochs, so the work per set-up does not depend on the seed.
CONFIGS = {
    # OU at the committed horizon; the two fit_mlp runs dominate set-up.
    # A holdout of 100 records calibrates the gate.
    "oup-serve": {"task": "oup", "n_obs": 100, "horizon": 25, "n_train": 400,
                  "holdout_frac": 0.25, "max_epochs": 20, "patience": 20,
                  "contamination": [{"eps": 0.0}, {"eps": 0.2}]},
    # Gaussian with the analytic engine. The gate is off, so every npe_mds
    # row runs L-BFGS: a decoder fitted this briefly flags only about a
    # quarter of the eps 0.2, delta 5 datasets.
    "gaussian-grid": {"task": "gaussian", "d": 2, "n_obs": 100, "n_train": 1000,
                      "n_features": 256, "max_epochs": 25, "patience": 25,
                      "gate": False, "n_test_datasets": 4,
                      "contamination": [{"eps": 0.0}, {"eps": 0.2, "delta": 5.0}]},
    # SIR at the committed horizon 365. n_train * n_obs = 1400 pool rows
    # keeps the set-up bandwidth on the exact pdist path: above 1414 rows
    # the sampled path gathers 1M pairs of 365-wide rows (about 5.8 GB).
    "sir-grid": {"task": "sir", "n_obs": 14, "horizon": 365, "n_train": 100,
                 "max_epochs": 30, "patience": 30, "n_test_datasets": 1,
                 "contamination": [{"eps": 0.0}, {"eps": 0.5}]},
}

@dataclass
class Run:
    """State of one workload run: its directory, tracer and verdicts."""
    name: str
    seed: int
    seconds: float
    out: Path
    tracer: object = None
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # end-to-end name -> (value, unit)
    facts: dict = field(default_factory=dict)  # inputs to the per-layer metrics

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def phase(self, name: str):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up and load, common to all workloads
# ---------------------------------------------------------------------------

def _setup_once(cfg, directory: Path):
    directory.mkdir()
    task = harness.build_task(cfg)
    pool, pool_path = harness.stage_pool(cfg, directory, task=task)
    dec, _holdout, dec_path = harness.stage_decoder(cfg, directory, pool=pool, task=task)
    engine, eng_path = harness.stage_engine(cfg, directory, pool=pool, task=task)
    return task, dec, engine, (pool_path, dec_path, eng_path)


def _timed_load(run: Run, dec_path: Path, eng_path: Path):
    with run.phase("bench.load"):
        t0 = time.perf_counter()
        dec, _holdout = inference.decoder_load(dec_path)
        engine = inference.engine_load(eng_path)
        run.facts.setdefault("load_s", []).append(time.perf_counter() - t0)
    return dec, engine


def setup_and_load(run: Run, cfg):
    """Cold set-ups, each followed by a timed load of its artifacts.

    Returns (task, decoder, engine, artifact paths), the models as loaded.
    Loads are timed at several points of the run, here and in
    finish_loads, so that their median spans the machine's drift.
    """
    times, file_hashes = [], []
    for k in range(SETUPS):
        with run.phase("bench.setup"):
            t0 = time.perf_counter()
            task, dec, engine, paths = _setup_once(cfg, run.out / f"setup-{k}")
            times.append(time.perf_counter() - t0)
        file_hashes.append([_sha256_file(p) for p in paths])
        loaded_dec, loaded_engine = _timed_load(run, paths[1], paths[2])
    run.check(all(h == file_hashes[0] for h in file_hashes),
              "set-ups from one seed wrote different artifacts")
    run.check(inference.decoder_hash(loaded_dec) == inference.decoder_hash(dec)
              and inference.engine_hash(loaded_engine) == inference.engine_hash(engine),
              "reloaded artifacts hash differently from the trained models")

    pool_path, dec_path, eng_path = paths
    sizes = {"pool": pool_path.stat().st_size / 1e6, "decoder": dec_path.stat().st_size / 1e6,
             "engine": eng_path.stat().st_size / 1e6}
    run.facts["sizes_mb"] = sizes
    run.metrics["setup_s"] = (statistics.median(times), "s")
    run.metrics["artifact_mb"] = (sizes["decoder"] + sizes["engine"], "MB")
    return task, loaded_dec, loaded_engine, paths


def finish_loads(run: Run, paths) -> None:
    for _ in range(LOADS_AFTER):
        _timed_load(run, paths[1], paths[2])
    loads = run.facts["load_s"]
    run.metrics["load_ms"] = (1e3 * statistics.median(loads), "ms")
    _note(f"{run.name}: loads (ms) " + " ".join(f"{1e3 * t:.1f}" for t in loads))


def _timed_rounds(run: Run, one_round):
    """Run whole rounds until run.seconds have passed; returns (results, wall s)."""
    results = []
    with run.phase("bench.measure"):
        t0 = time.perf_counter()
        while True:
            results.append(one_round(len(results)))
            elapsed = time.perf_counter() - t0
            if elapsed >= run.seconds:
                run.facts["rounds"] = len(results)
                return results, elapsed


def _finish(run: Run, done: int, elapsed: float) -> None:
    run.metrics["ops_per_s"] = (done / elapsed, "1/s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")


# ---------------------------------------------------------------------------
# oup-serve
# ---------------------------------------------------------------------------

@dataclass
class _Query:
    kind: str  # clean | contaminated | malformed
    data: np.ndarray


def _make_queries(task, seed: int) -> list:
    """Clean and contaminated datasets from the seed, in a seeded order,
    plus N_MALFORMED seed-independent datasets holding one NaN each."""
    rng = np.random.default_rng([seed, 1])
    spec = contamination.ContaminationSpec(kind="offprior_trajectories", eps=0.2)
    queries = []
    for kind in ("clean", "contaminated"):
        for _ in range(N_QUERIES_PER_KIND):
            data = task.simulate(task.prior_sample(rng), rng)
            if kind == "contaminated":
                data = contamination.apply_contamination(spec, task, data, rng)
            queries.append(_Query(kind, data))
    queries = [queries[i] for i in rng.permutation(len(queries))]
    fixed = np.random.default_rng(12345)
    step = len(queries) // (N_MALFORMED + 1)
    for m in range(N_MALFORMED):
        data = task.simulate(task.prior_sample(fixed), fixed)
        data[m, m] = np.nan
        queries.insert((m + 1) * step + m, _Query("malformed", data))
    return queries


def _decoder_arrays(path: Path) -> dict:
    """The decoder's parameters, read from its saved file with this
    benchmark's own hex parser."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)

    def arr(p):
        return np.array([float.fromhex(h) for h in p["hex"]]).reshape(p["shape"])

    reg = payload["regressor"]
    return {"weights": [arr(w) for w in reg["weights"]],
            "biases": [arr(b) for b in reg["biases"]],
            "mean": arr(payload["summary_mean"]), "std": arr(payload["summary_std"]),
            "freqs": arr(payload["feature_map"]["frequencies"]),
            "phases": arr(payload["feature_map"]["phases"])}


def _objective_numpy(arrays: dict, s: np.ndarray, data: np.ndarray) -> float:
    """||MLP(standardized s) - mean RFF(data)||^2, recomputed in numpy."""
    h = (s - arrays["mean"]) / arrays["std"]
    n_layers = len(arrays["weights"])
    for layer, (w, b) in enumerate(zip(arrays["weights"], arrays["biases"])):
        h = w @ h + b
        if layer < n_layers - 1:
            h = np.tanh(h)
    k = arrays["freqs"].shape[0]
    emb = (np.sqrt(2.0 / k) * np.cos(data @ arrays["freqs"].T + arrays["phases"])).mean(axis=0)
    diff = h - emb
    return float(diff @ diff)


def _gate_bound(alpha: float, n_queries: int, n_holdout: int) -> float:
    """Upper bound on the clean flag share: binomial sampling of the queries
    plus the spread of the exceedance probability of a threshold set at
    the (1 - alpha) quantile of n_holdout clean records."""
    var = alpha * (1 - alpha) / n_queries + alpha * (1 - alpha) / (n_holdout + 1)
    return alpha + GATE_Z * math.sqrt(var)


def run_oup_serve(run: Run) -> None:
    # The seed draws the queries; the set-up keeps master_seed 0, so every
    # seed serves the same decoder and the work per query varies only with
    # the queries (objective evaluations per adapted query ranged 24-30
    # over three decoders).
    cfg = harness.config_from_dict(CONFIGS["oup-serve"])
    task, dec, engine, paths = setup_and_load(run, cfg)
    queries = _make_queries(task, run.seed)
    dec_hash, eng_hash = inference.decoder_hash(dec), inference.engine_hash(engine)

    def one_round(r):
        """(kind, AdaptationResult or None, ok) per query."""
        out = []
        for qi, q in enumerate(queries):
            if q.kind == "malformed":
                try:
                    adaptation.adapt(dec, q.data)
                    out.append((q.kind, None, False))  # the gate let it through
                except (ValueError, NumericalError):
                    out.append((q.kind, None, True))
                continue
            res = adaptation.adapt(dec, q.data)
            samples = inference.posterior_sample(engine, res.s_star, N_POSTERIOR,
                                                 np.random.default_rng([run.seed, 2, qi]))
            ok = samples.shape == (N_POSTERIOR, task.theta_dim) and bool(np.all(np.isfinite(samples)))
            out.append((q.kind, res, ok))
        return out

    rounds, elapsed = _timed_rounds(run, one_round)
    finish_loads(run, paths)
    run.attempted = len(rounds) * len(queries)
    run.failed = sum(1 for rnd in rounds for (_k, _res, ok) in rnd if not ok)
    _finish(run, run.attempted - run.failed, elapsed)

    run.check(inference.decoder_hash(dec) == dec_hash
              and inference.engine_hash(engine) == eng_hash,
              "the query stream changed the frozen decoder or engine")
    first = rounds[0]
    for rnd in rounds[1:]:
        run.check(all((a[1] is None and b[1] is None)
                      or (a[1] is not None and b[1] is not None
                          and a[1].detected == b[1].detected
                          and a[1].objective_final == b[1].objective_final)
                      for a, b in zip(first, rnd)),
                  "repeated rounds of the same queries gave different results")
    for kind, _res, ok in first:
        if kind != "malformed":
            run.check(ok, "posterior samples have the wrong shape or are not finite")

    arrays = _decoder_arrays(paths[1])
    flagged = {"clean": 0, "contaminated": 0}
    adapted = fallbacks = 0
    for q, (kind, res, _ok) in zip(queries, first):
        if res is None:
            continue
        flagged[kind] += res.detected
        if not res.detected:
            run.check(np.array_equal(res.s_star, task.summary(q.data))
                      and res.objective_final == res.objective_initial,
                      "a query the gate passed did not keep the observed summary")
            continue
        adapted += 1
        fell_back = tracing.adapt_fell_back(res)
        fallbacks += fell_back
        run.check(res.objective_final <= res.objective_initial,
                  "adaptation raised the objective")
        run.check(fell_back or res.objective_final < res.objective_initial,
                  "adaptation kept an s_star that does not lower the objective")
        mine = _objective_numpy(arrays, res.s_star, q.data)
        run.check(abs(mine - res.objective_final) <= OBJECTIVE_RTOL * abs(mine),
                  f"objective_final {res.objective_final!r} != numpy recomputation {mine!r}")
    run.check(adapted > 0 and fallbacks <= MAX_FALLBACK_SHARE * adapted,
              f"{fallbacks} of {adapted} adapted queries fell back to the observed summary")
    n_holdout = max(1, int(round(cfg.holdout_frac * cfg.n_train)))
    bound = _gate_bound(cfg.alpha, N_QUERIES_PER_KIND, n_holdout)
    clean_share = flagged["clean"] / N_QUERIES_PER_KIND
    cont_share = flagged["contaminated"] / N_QUERIES_PER_KIND
    run.check(clean_share <= bound,
              f"gate flagged {clean_share:.2f} of clean queries, above the bound {bound:.3f}")
    run.check(cont_share > bound,
              f"gate flagged {cont_share:.2f} of contaminated queries, not above {bound:.3f}")
    run.facts.update(flagged_clean=flagged["clean"], flagged_contaminated=flagged["contaminated"],
                     rows_per_round=0, rows=0)
    _note(f"oup-serve: {len(rounds)} rounds of {len(queries)} queries; flagged clean "
          f"{flagged['clean']}/{N_QUERIES_PER_KIND}, contaminated "
          f"{flagged['contaminated']}/{N_QUERIES_PER_KIND}, gate bound {bound:.3f}; "
          f"{fallbacks} fallbacks of {adapted} adapted")


# ---------------------------------------------------------------------------
# gaussian-grid and sir-grid
# ---------------------------------------------------------------------------

_METRIC_FIELDS = ("rmse", "coverage", "posterior_mmd", "predictive_mmd", "summary_oracle_dist")


def _read_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _grid_rounds(run: Run, cfg, paths):
    """Timed warm run_pipeline rounds, each in a fresh directory."""
    def one_round(r):
        d = run.out / f"round-{r}"
        d.mkdir()
        for p in paths:
            os.link(p, d / p.name)
        t0 = time.perf_counter()
        manifest = harness.run_pipeline(cfg, d, jobs=1)
        return d, manifest, time.perf_counter() - t0

    rounds, _elapsed = _timed_rounds(run, one_round)
    finish_loads(run, paths)
    rows = sum(m["n_rows"] for _d, m, _t in rounds)
    _finish(run, rows, sum(t for _d, _m, t in rounds))
    run.attempted = rows
    run.failed = 0

    digests = []
    for d, manifest, _t in rounds:
        csv_path = d / manifest["artifacts"]["results"]
        # the round directory started without a CSV, so this one is new
        run.check(csv_path.exists() and manifest["complete"],
                  f"round {d.name} wrote no results CSV")
        digests.append(_sha256_file(csv_path))
    run.check(len(set(digests)) == 1, "repeated rounds wrote different results CSVs")
    _note(f"{run.name}: results CSV sha256 {digests[0]}")
    first_dir, first_manifest, _t = rounds[0]
    rows = _read_rows(first_dir / first_manifest["artifacts"]["results"])
    expected = len(cfg.contamination) * cfg.n_test_datasets * len(cfg.methods)
    run.check(len(rows) == expected, f"results CSV has {len(rows)} rows, expected {expected}")
    for row in rows:
        for name in _METRIC_FIELDS:
            if row[name] != "":
                run.check(math.isfinite(float(row[name])), f"non-finite {name} in a results row")
        clean = float(row["eps"]) == 0.0
        adapted = row["method"] == "npe_mds" and (not cfg.gate or row["detected"] == "true")
        if clean and not adapted:
            run.check(float(row["summary_oracle_dist"]) == 0.0,
                      "a clean, unadapted row has a nonzero summary_oracle_dist")
    contaminated = [r for r in rows if float(r["eps"]) > 0.0]
    run.facts.update(
        rows_per_round=len(rows), rows=len(rows) * len(rounds),
        flagged_clean=sum(r["detected"] == "true" for r in rows
                          if float(r["eps"]) == 0.0 and r["method"] == "npe_plain"),
        flagged_contaminated=sum(r["detected"] == "true" for r in contaminated
                                 if r["method"] == "npe_plain"))
    return rows, contaminated


def _exact_sample_mmd(a: np.ndarray, b: np.ndarray) -> float:
    """MMD with the exact median-distance bandwidth, from scipy distances."""
    bandwidth = float(np.median(pdist(np.vstack([a, b]))))
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    kxx = np.exp(-gamma * cdist(a, a, "sqeuclidean")).mean()
    kyy = np.exp(-gamma * cdist(b, b, "sqeuclidean")).mean()
    kxy = np.exp(-gamma * cdist(a, b, "sqeuclidean")).mean()
    return math.sqrt(max(kxx + kyy - 2.0 * kxy, 0.0))


def _direction_rmse(cfg, dec, cell_idx: int, n_datasets: int):
    """Exact-posterior-mean RMSE at the observed and at the adapted summary
    on the first n_datasets datasets of a grid cell, drawn from the
    harness's own test-data and contaminate streams (the grid evaluates the
    first cfg.n_test_datasets of them)."""
    task = harness.build_task(cfg)
    spec = contamination.ContaminationSpec(**cfg.contamination[cell_idx])
    shrink = cfg.n_obs / (cfg.n_obs + 1.0)  # conjugate posterior mean = shrink * xbar
    plain, adapted = [], []
    for j in range(n_datasets):
        rng = derive_rng(cfg.master_seed, "test-data", cell_idx, j)
        theta = task.prior_sample(rng)
        clean = task.simulate(theta, rng)
        observed = contamination.apply_contamination(
            spec, task, clean, derive_rng(cfg.master_seed, "contaminate", cell_idx, j))
        res = adaptation.adapt(dec, observed, gate=cfg.gate)
        plain.append(math.sqrt(np.mean((shrink * res.s_initial - theta) ** 2)))
        adapted.append(math.sqrt(np.mean((shrink * res.s_star - theta) ** 2)))
    return plain, adapted


def run_gaussian_grid(run: Run) -> None:
    cfg = harness.config_from_dict({**CONFIGS["gaussian-grid"], "master_seed": run.seed})
    _task, dec, _engine, paths = setup_and_load(run, cfg)
    rows, _contaminated = _grid_rounds(run, cfg, paths)

    clean_plain = [r for r in rows if float(r["eps"]) == 0.0 and r["method"] == "npe_plain"]
    trials = len(clean_plain) * cfg.d
    covered = round(sum(float(r["coverage"]) * cfg.d for r in clean_plain))
    p = binomtest(covered, trials, 1.0 - cfg.coverage_alpha).pvalue
    run.check(p >= COVERAGE_P, f"clean npe_plain coverage {covered}/{trials} is inconsistent "
                         f"with {1.0 - cfg.coverage_alpha} (p = {p:.2g})")
    plain, adapted = _direction_rmse(cfg, dec, cell_idx=1, n_datasets=N_DIRECTION)
    run.check(np.median(adapted) < np.median(plain),
              f"adapted median rmse {np.median(adapted)} is not below plain {np.median(plain)}")

    rng = np.random.default_rng([run.seed, 3])
    a = rng.standard_normal((N_POSTERIOR, cfg.d))
    b = 0.3 + rng.standard_normal((N_POSTERIOR, cfg.d))
    got, want = metrics.sample_mmd(a, b), _exact_sample_mmd(a, b)
    run.check(abs(got - want) <= MMD_RTOL * want,
              f"sample_mmd {got!r} differs from the exact-median MMD {want!r}")
    _note(f"gaussian-grid: coverage {covered}/{trials}; contaminated median rmse plain "
          f"{np.median(plain):.4f}, adapted {np.median(adapted):.4f}; sample_mmd {got:.6f} "
          f"vs exact {want:.6f}")


def run_sir_grid(run: Run) -> None:
    cfg = harness.config_from_dict({**CONFIGS["sir-grid"], "master_seed": run.seed})
    _task, _dec, _engine, paths = setup_and_load(run, cfg)
    _rows, contaminated = _grid_rounds(run, cfg, paths)
    for r in contaminated:
        if r["method"] == "npe_plain":
            run.check(float(r["summary_oracle_dist"]) > 0.0,
                      "weekend under-reporting left the observed summary unchanged")


WORKLOADS = {"oup-serve": run_oup_serve, "gaussian-grid": run_gaussian_grid,
             "sir-grid": run_sir_grid}


def _note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)
