"""End-to-end acceptance checks for the adaptive-summary pipeline.

Each test covers one numbered acceptance criterion and prints a single
``[criterion NN] PASS|FAIL <name> (<elapsed>)`` line; run with ``pytest -s``
to see the lines for passing criteria too.

Heavy artifacts (training pools, decoders, posterior engines, result tables)
are cached under ``.cache/acceptance`` at the repository root. The first run
pays the full training cost; later runs reload the frozen artifacts and only
re-check the assertions. A change of ``harness.ARTIFACT_VERSION`` clears the
cached artifacts first (prune_stale_cache, checked by the one test here that
is not a criterion). Every random stream derives from one committed
master seed, so all numbers here are reproducible bit for bit.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import binom
from helpers import closed_form_embedding, mlp_backward, posterior_kl_analytic, posterior_moments

from mdsum import optimize
from mdsum.adaptation import adapt, detect
from mdsum.contamination import ContaminationSpec, apply_contamination
from mdsum.harness import (ARTIFACT_VERSION, config_from_dict, read_results_csv,
                           run_pipeline, stage_decoder, stage_engine)
from mdsum.inference import decoder_hash, decoder_load, engine_hash, engine_load, train_mdn
from mdsum.kernels import (build_feature_map, mean_embedding, median_heuristic,
                           mmd2_exact, mmd2_rff)
from mdsum.nn import mlp_init
from mdsum.optimize import ObjectiveEval, lbfgs_minimize
from mdsum.simulators import build_training_pool, gaussian_posterior, make_task
from mdsum.util import derive_rng

MASTER_SEED = 0
CACHE = Path(__file__).resolve().parents[1] / ".cache" / "acceptance"
CACHE.mkdir(parents=True, exist_ok=True)
STALE_PATTERNS = ("pool-*", "decoder-*", "engine-*", "results-*", "manifest-*")


def prune_stale_cache(cache: Path, version: int) -> None:
    """Delete the cached artifacts of another ARTIFACT_VERSION.

    The version the cache was filled under is kept in an ``artifact-version``
    stamp. When it differs from version, every keyed artifact goes, since
    none can be a hit again; a cache without a stamp is only stamped.
    """
    stamp = cache / "artifact-version"
    if stamp.exists() and stamp.read_text(encoding="utf-8") != str(version):
        for pattern in STALE_PATTERNS:
            for path in cache.glob(pattern):
                path.unlink()
    stamp.write_text(str(version), encoding="utf-8")


@pytest.fixture(scope="module", autouse=True)
def _current_cache():
    prune_stale_cache(CACHE, ARTIFACT_VERSION)

# shared amortized stack for criteria 5, 6, 7 and 10
MAIN_CONFIG = {"task": "gaussian", "d": 2, "n_obs": 100, "n_train": 20000,
               "n_features": 512, "master_seed": MASTER_SEED}
TRIO_CONFIG = {"task": "gaussian", "d": 2, "n_train": 6000, "n_features": 256,
               "master_seed": MASTER_SEED}

_STACKS: dict = {}


def _main_stack():
    """Decoder and analytic engine for MAIN_CONFIG, built once and cached.

    Returns (decoder, engine, seconds this call spent building or loading
    them). Criteria take the stack before their clock starts, so that a
    cold cache's build does not count against the first one's budget.
    """
    t0 = time.perf_counter()
    if "main" not in _STACKS:
        cfg = config_from_dict(dict(MAIN_CONFIG))
        dec, _holdout, _ = stage_decoder(cfg, CACHE)
        engine, _ = stage_engine(cfg, CACHE)
        _STACKS["main"] = (dec, engine)
    return (*_STACKS["main"], time.perf_counter() - t0)


class Criterion:
    """Clause collector; prints one PASS/FAIL line and enforces a time budget.

    stack_s, when given, is the time spent on the shared main stack before
    the clock started; it is printed but not budgeted.
    """

    def __init__(self, number: int, name: str, budget_s: float,
                 stack_s: float | None = None):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.stack_s = stack_s
        self.failures: list[str] = []
        self._t0 = time.perf_counter()

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)

    def done(self) -> None:
        elapsed = time.perf_counter() - self._t0
        if elapsed > self.budget_s:
            self.failures.append(
                f"runtime {elapsed:.1f}s exceeds budget {self.budget_s:.0f}s")
        status = "FAIL" if self.failures else "PASS"
        stack = "" if self.stack_s is None else f"; main stack {self.stack_s:.1f}s before"
        print(f"[criterion {self.number:02d}] {status} {self.name} ({elapsed:.1f}s{stack})")
        assert not self.failures, \
            f"criterion {self.number} failed clauses: {self.failures}"


def test_criterion_01_feature_map_fidelity():
    crit = Criterion(1, "random-feature mmd tracks the exact mmd", budget_s=10.0)
    rng = derive_rng(MASTER_SEED, "acceptance-rff", "data")
    x = rng.standard_normal((200, 2))
    y = rng.standard_normal((200, 2)) + 0.8
    ell = median_heuristic(np.vstack([x, y]))
    exact = mmd2_exact(ell, x, y)
    errs = []
    for s in range(20):
        fm = build_feature_map(2, 512, ell, derive_rng(MASTER_SEED, "acceptance-rff", s))
        approx = mmd2_rff(fm, mean_embedding(fm, x), mean_embedding(fm, y))
        errs.append(abs(approx - exact))
    mean_err = float(np.mean(errs))
    crit.check(f"mean |mmd2_rff - mmd2_exact| = {mean_err:.4g} <= 0.05",
               mean_err <= 0.05)
    crit.done()


def _fd_param_grad(fn, arr, h=1e-5):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = fn()
        arr[idx] = orig - h
        fm = fn()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def test_criterion_02_gradient_correctness():
    crit = Criterion(2, "backprop matches central finite differences", budget_s=30.0)
    worst = 0.0
    for trial in range(20):
        rng = derive_rng(MASTER_SEED, "acceptance-grad", trial)
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 9)) for _ in range(n_layers + 1)]
        mlp = mlp_init(dims, rng)
        inputs = rng.standard_normal((5, dims[0]))
        targets = rng.standard_normal((5, dims[-1]))
        _loss, grads = mlp_backward(mlp, inputs, targets)
        fn = lambda: mlp_backward(mlp, inputs, targets)[0]
        numeric = _fd_param_grad(fn, mlp.params)  # the layers' views move with params
        denom = np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(np.abs(grads - numeric) / denom)))
    crit.check(f"max relative error {worst:.4g} <= 1e-4 over 20 networks",
               worst <= 1e-4)
    crit.done()


def test_criterion_03_optimizer_correctness(monkeypatch):
    crit = Criterion(3, "l-bfgs solves quadratics fast and rosenbrock exactly",
                     budget_s=5.0)
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-8)
    for trial in range(20):
        rng = derive_rng(MASTER_SEED, "acceptance-quad", trial)
        dim = int(rng.integers(2, 8))
        basis = rng.standard_normal((dim, dim))
        hess = basis @ basis.T + dim * np.eye(dim)
        center = rng.standard_normal(dim)

        def objective(x):
            d = x - center
            return ObjectiveEval(0.5 * float(d @ hess @ d), hess @ d)

        x, iters, conv = lbfgs_minimize(objective, np.zeros(dim))
        grad_norm = float(np.linalg.norm(hess @ (x - center)))
        crit.check(f"quadratic {trial} (dim {dim}): grad {grad_norm:.2g} <= 1e-8 "
                   f"in {iters} <= {dim + 2} iterations",
                   conv and grad_norm <= 1e-8 and iters <= dim + 2)

    def rosenbrock(x):
        a, b = x
        val = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
        return ObjectiveEval(val, grad)

    monkeypatch.setattr(optimize, "MAX_ITERS", 100)
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-10)
    x, _iters, conv = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
    off = float(np.max(np.abs(x - 1.0)))
    crit.check(f"rosenbrock minimum within {off:.2g} <= 1e-5 of (1, 1)",
               conv and off <= 1e-5)
    crit.done()


def test_criterion_04_posterior_engines():
    crit = Criterion(4, "closed-form posterior verified; mixture engine matches it",
                     budget_s=300.0)
    n_obs = 100
    grid = np.linspace(-10.0, 10.0, 200001)
    rng = derive_rng(MASTER_SEED, "acceptance-conj")
    worst_slice = 0.0
    for _ in range(5):
        summary = rng.normal(0.0, 1.0, size=2)
        mean, _var = gaussian_posterior(summary, n_obs)
        for d in range(2):
            # 1-d slice: standard normal prior times the sample-mean likelihood
            weight = np.exp(-0.5 * grid ** 2
                            - 0.5 * n_obs * (summary[d] - grid) ** 2)
            quad_mean = float(np.trapezoid(grid * weight, grid)
                              / np.trapezoid(weight, grid))
            worst_slice = max(worst_slice, abs(quad_mean - mean[d]))
    crit.check(f"analytic vs quadrature mean error {worst_slice:.2g} <= 1e-6",
               worst_slice <= 1e-6)

    task = make_task("gaussian", d=2, n_obs=n_obs)
    pool = build_training_pool(task, 8000, MASTER_SEED)
    engine, _report = train_mdn(pool, 1, derive_rng(MASTER_SEED, "acceptance-mdn"),
                                max_epochs=400, patience=40)
    idx = derive_rng(MASTER_SEED, "acceptance-mdn-probes").choice(8000, 10,
                                                                  replace=False)
    worst_mean, worst_std = 0.0, 0.0
    for i in idx:
        s = pool.summaries[i]
        mean_true, var_true = gaussian_posterior(s, n_obs)
        mean_fit, var_fit = posterior_moments(engine, s)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean_fit - mean_true))))
        worst_std = max(worst_std, float(np.max(
            np.abs(np.sqrt(var_fit) - np.sqrt(var_true)) / np.sqrt(var_true))))
    crit.check(f"single-component mean error {worst_mean:.4g} <= 0.1 at 10 probes",
               worst_mean <= 0.1)
    crit.check(f"single-component stddev relative error {worst_std:.4g} <= 0.2",
               worst_std <= 0.2)
    crit.done()


def test_criterion_05_detection_calibration():
    dec, _engine, stack_s = _main_stack()
    crit = Criterion(5, "clean-data flag rate stays near the design level",
                     budget_s=300.0, stack_s=stack_s)
    task = dec.task
    flags = 0
    for j in range(500):
        rng = derive_rng(MASTER_SEED, "acceptance-clean", j)
        theta = task.prior_sample(rng)
        data = task.simulate(theta, rng)
        _stat, flagged = detect(dec, task.summary(data),
                                mean_embedding(dec.feature_map, data))
        flags += bool(flagged)
    rate = flags / 500.0
    crit.check(f"flag rate {rate:.3f} in [0.025, 0.10] at alpha=0.05 "
               f"over 500 clean datasets", 0.025 <= rate <= 0.10)
    crit.done()


def _sign_test_bar(n: int, level: float) -> int:
    """Smallest k with P(Bin(n, 1/2) >= k) <= level."""
    return next(k for k in range(n + 2) if binom.sf(k - 1, n, 0.5) <= level)


def test_criterion_06_gaussian_robustness_direction():
    dec, _engine, stack_s = _main_stack()
    crit = Criterion(6, "adaptation beats the plain query under contamination",
                     budget_s=900.0, stack_s=stack_s)
    cfg = config_from_dict(dict(MAIN_CONFIG,
                                contamination=[{"eps": 0.2, "delta": 3.0}],
                                n_test_datasets=50))
    manifest = run_pipeline(cfg, CACHE, jobs=1)
    rows = read_results_csv(CACHE / manifest["artifacts"]["results"])
    plain = {r["seed"]: r for r in rows if r["method"] == "npe_plain"}
    mds = {r["seed"]: r for r in rows if r["method"] == "npe_mds"}

    med = lambda table, key: float(np.median([r[key] for r in table.values()]))
    rmse_plain, rmse_mds = med(plain, "rmse"), med(mds, "rmse")
    crit.check(f"median rmse adapted {rmse_mds:.4g} < plain {rmse_plain:.4g}",
               rmse_mds < rmse_plain)
    mmd_plain, mmd_mds = med(plain, "posterior_mmd"), med(mds, "posterior_mmd")
    crit.check(f"median posterior mmd adapted {mmd_mds:.4g} < plain {mmd_plain:.4g}",
               mmd_mds < mmd_plain)

    # Direction: the estimator promises bounded outlier influence, not a fixed
    # per-dataset win rate (the exact minimum-MMD estimator itself lands
    # closer in only about three quarters of draws at delta=3). A one-sided
    # sign test at level 0.01 rejects "adaptation is no better than plain".
    flagged = [seed for seed, r in plain.items() if r["detected"]]
    wins = sum(mds[seed]["summary_oracle_dist"] < plain[seed]["summary_oracle_dist"]
               for seed in flagged)
    bar = _sign_test_bar(len(flagged), level=0.01)
    crit.check(f"adapted summary closer to the clean-data summary in "
               f"{wins}/{len(flagged)} = {wins / len(flagged):.2f} of flagged "
               f"datasets, sign-test bar {bar} at level 0.01", wins >= bar)

    # Fidelity: on the same datasets, adaptation reaches the minimiser of its
    # exact objective, ||closed-form embedding(s) - zbar_obs||^2, to within one
    # posterior standard deviation. Runs live, so a stale CSV cannot pass it.
    task = dec.task
    cell_idx = 0  # the config's single grid cell
    cell = cfg.contamination[cell_idx]
    spec = ContaminationSpec(kind=cell["kind"], eps=cell["eps"], delta=cell["delta"])
    tol = 1.0 / np.sqrt(cfg.n_obs + 1.0)
    worst = 0.0
    for j in flagged:
        rng = derive_rng(MASTER_SEED, "test-data", cell_idx, j)
        clean = task.simulate(task.prior_sample(rng), rng)
        observed = apply_contamination(spec, task, clean,
                                       derive_rng(MASTER_SEED, "contaminate", cell_idx, j))
        zbar = mean_embedding(dec.feature_map, observed)
        phi = lambda s: float(np.sum(
            (closed_form_embedding(dec.feature_map, s, cfg.n_obs) - zbar) ** 2))
        s_exact = minimize(phi, task.summary(observed), method="BFGS").x
        s_star = adapt(dec, observed, gate=cfg.gate).s_star
        worst = max(worst, float(np.linalg.norm(s_star - s_exact)))
    crit.check(f"adapted summary within {worst:.4g} <= {tol:.4g} of the exact "
               f"objective's minimiser on all flagged datasets", worst <= tol)
    crit.done()


def test_criterion_07_contamination_slope():
    dec, engine, stack_s = _main_stack()
    crit = Criterion(7, "posterior drift grows at most linearly in contamination",
                     budget_s=300.0, stack_s=stack_s)
    task = dec.task
    eps_grid = (0.01, 0.02, 0.04)
    kls = {eps: [] for eps in eps_grid}
    for j in range(10):
        rng = derive_rng(MASTER_SEED, "acceptance-slope", j)
        theta = task.prior_sample(rng)
        data = task.simulate(theta, rng)
        s_clean = adapt(dec, data, gate=False).s_star
        for eps in eps_grid:
            k = int(np.floor(eps * task.n_obs + 0.5))
            tainted = data.copy()
            tainted[:k] = 5.0  # point mass far in the tail
            s_taint = adapt(dec, tainted, gate=False).s_star
            kls[eps].append(posterior_kl_analytic(engine, engine, s_clean, s_taint))
    med = {eps: float(np.median(kls[eps])) for eps in eps_grid}
    slope = 1.5 * med[0.04] / 0.04
    for eps in eps_grid:
        crit.check(f"median kl {med[eps]:.4g} <= {slope:.4g} * {eps} at eps={eps}",
                   med[eps] <= slope * eps)
    crit.done()


def test_criterion_08_sample_size_consistency():
    crit = Criterion(8, "posterior-mean rmse shrinks as datasets grow",
                     budget_s=600.0)
    medians = []
    for n_obs in (10, 100, 1000):
        cfg = config_from_dict(dict(TRIO_CONFIG, n_obs=n_obs))
        dec, _holdout, _ = stage_decoder(cfg, CACHE)
        task = dec.task
        errs = []
        for j in range(30):
            rng = derive_rng(MASTER_SEED, "acceptance-consistency", n_obs, j)
            theta = task.prior_sample(rng)
            data = task.simulate(theta, rng)
            result = adapt(dec, data, gate=False)
            post_mean = (n_obs / (n_obs + 1.0)) * result.s_star
            errs.append(float(np.sqrt(np.mean((post_mean - theta) ** 2))))
        medians.append(float(np.median(errs)))
    shown = ", ".join(f"{m:.4g}" for m in medians)
    crit.check(f"median rmse strictly decreasing over n_obs 10/100/1000: {shown}",
               medians[0] > medians[1] > medians[2])
    crit.done()


def test_criterion_09_oup_robustness():
    crit = Criterion(9, "oup adaptation beats plain under off-prior rows",
                     budget_s=1200.0)
    cfg = config_from_dict({"task": "oup", "n_train": 5000,
                            "master_seed": MASTER_SEED,
                            "contamination": [{"eps": 0.3}],
                            "n_test_datasets": 30})
    manifest = run_pipeline(cfg, CACHE, jobs=1)
    rows = read_results_csv(CACHE / manifest["artifacts"]["results"])
    plain = [r for r in rows if r["method"] == "npe_plain"]
    mds = [r for r in rows if r["method"] == "npe_mds"]
    med = lambda table, key: float(np.median([r[key] for r in table]))
    rmse_plain, rmse_mds = med(plain, "rmse"), med(mds, "rmse")
    crit.check(f"median rmse adapted {rmse_mds:.4g} < plain {rmse_plain:.4g}",
               rmse_mds < rmse_plain)
    dist_plain, dist_mds = (med(plain, "summary_oracle_dist"),
                            med(mds, "summary_oracle_dist"))
    crit.check(f"median distance to the clean-data summary adapted "
               f"{dist_mds:.4g} < unadapted {dist_plain:.4g}",
               dist_mds < dist_plain)
    crit.done()


def test_criterion_10_shift_size_detection():
    crit = Criterion(10, "smaller outlier shifts are flagged less often",
                     budget_s=600.0)
    cfg = config_from_dict(dict(MAIN_CONFIG,
                                contamination=[{"eps": 0.2, "delta": 1.0},
                                               {"eps": 0.2, "delta": 2.0},
                                               {"eps": 0.2, "delta": 3.0}],
                                n_test_datasets=50, methods=["npe_plain"]))
    manifest = run_pipeline(cfg, CACHE, jobs=1)
    rows = read_results_csv(CACHE / manifest["artifacts"]["results"])
    rate = {}
    for delta in (1.0, 2.0, 3.0):
        cell = [r for r in rows if r["delta"] == delta]
        rate[delta] = sum(r["detected"] for r in cell) / len(cell)
    shown = ", ".join(f"delta={d:g}: {rate[d]:.2f}" for d in (1.0, 2.0, 3.0))
    crit.check(f"flag rate strictly lower at delta=1 than delta=3 ({shown})",
               rate[1.0] < rate[3.0])
    crit.done()


def test_criterion_11_determinism_and_amortization():
    crit = Criterion(11, "identical configs give identical bytes; models stay frozen",
                     budget_s=120.0)
    raw = {"task": "gaussian", "d": 2, "n_obs": 15, "n_train": 400,
           "n_features": 32, "max_epochs": 10, "patience": 4,
           "n_test_datasets": 4, "n_posterior_samples": 200, "n_predictive": 30,
           "contamination": [{"eps": 0.0}, {"eps": 0.3, "delta": 3.0}],
           "master_seed": MASTER_SEED}
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        outputs = {}
        for tag, jobs in (("serial-a", 1), ("serial-b", 1), ("parallel", 2)):
            manifest = run_pipeline(config_from_dict(dict(raw)), root / tag, jobs=jobs)
            outputs[tag] = (root / tag / manifest["artifacts"]["results"]).read_bytes()
            if tag == "serial-a":
                first = manifest
                dec_path = root / tag / manifest["artifacts"]["decoder"]
                eng_path = root / tag / manifest["artifacts"]["engine"]
        crit.check("results identical across independent serial runs",
                   outputs["serial-a"] == outputs["serial-b"])
        crit.check("results identical between jobs=1 and jobs=2",
                   outputs["serial-a"] == outputs["parallel"])

        dec, _holdout = decoder_load(dec_path)
        engine = engine_load(eng_path)
        dec_before, eng_before = decoder_hash(dec), engine_hash(engine)
        crit.check("manifest records the decoder content hash",
                   first["decoder_hash"] == dec_before)
        task = dec.task
        for j in range(6):
            rng = derive_rng(MASTER_SEED, "acceptance-amortize", j)
            data = task.simulate(task.prior_sample(rng), rng)
            adapt(dec, data)
        crit.check("decoder hash unchanged by adaptation calls",
                   decoder_hash(dec) == dec_before)
        crit.check("engine hash unchanged by adaptation calls",
                   engine_hash(engine) == eng_before)
    crit.done()


def test_stale_cache_is_pruned_when_the_artifact_version_changes(tmp_path):
    keyed = [f"{p[:-1]}0123.json" for p in STALE_PATTERNS]
    other = ["results.csv", "notes.txt"]
    for name in keyed + other:
        (tmp_path / name).write_text("x", encoding="utf-8")
    prune_stale_cache(tmp_path, 7)  # no stamp yet: nothing is deleted
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        keyed + other + ["artifact-version"])
    prune_stale_cache(tmp_path, 7)
    assert len(list(tmp_path.iterdir())) == len(keyed + other) + 1
    prune_stale_cache(tmp_path, 8)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(other + ["artifact-version"])
    assert (tmp_path / "artifact-version").read_text(encoding="utf-8") == "8"
