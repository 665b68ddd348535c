"""Span tracing of mdsum from outside the package.

A traced run replaces public functions of mdsum with timing wrappers at
the module attribute they are looked up by (for example
``mdsum.inference.fit_mlp``, which ``train_decoder`` calls, and
``mdsum.harness.decoder_save``, which ``stage_decoder`` calls). Each call
records one span: a name, a start, an end, the span that was open when it
began, and optional attributes taken from the result. Spans stay in memory
and are written out when the run ends. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
import tracemalloc
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span store; parents always precede their children."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.attrs: dict = {}  # span index -> dict
        self._stack: list = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, attrs=None, result=None):
        """Wrap fn so each call is a span.

        attrs(result) -> dict stores attributes on the span; result(value)
        replaces the returned value (used to wrap returned closures).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as idx:
                value = fn(*args, **kwargs)
                if attrs is not None:
                    tracer.attrs[idx] = attrs(value)
            return value if result is None else result(value)

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends,
                                                 self.parents)):
                fh.write(f"{i}\t{n}\t{s:.9f}\t{e:.9f}\t{p}\n")

    def summary(self) -> list:
        """(name, calls, total s, self s) per span name, by self time."""
        names = np.asarray(self.names, dtype=object)
        dur, own = self.durations(), self.self_times()
        rows = [(n, int(np.sum(names == n)), float(np.sum(dur[names == n])),
                 float(np.sum(own[names == n]))) for n in sorted(set(self.names))]
        return sorted(rows, key=lambda r: -r[3])

    # -- queries over the recorded spans ---------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def nearest(self, names) -> np.ndarray:
        """For every span, the index of its nearest enclosing span (itself
        included) whose name is in names, or -1."""
        wanted = set(names)
        out = np.full(len(self.names), -1, dtype=np.int64)
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            if n in wanted:
                out[i] = i
            elif p >= 0:
                out[i] = out[p]
        return out

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover."""
        dur = self.durations()
        child = np.zeros(len(dur))
        parents = np.asarray(self.parents, dtype=np.int64)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        t = self.tracer
        idx = len(t.names)
        t.names.append(self.name)
        t.parents.append(t._stack[-1] if t._stack else -1)
        t.ends.append(0.0)
        t._stack.append(idx)
        t.starts.append(time.perf_counter())
        self.idx = idx
        return idx

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.idx] = time.perf_counter()
        t._stack.pop()
        return False


def _task_wrapper(tracer: Tracer):
    """make_task replacement whose tasks trace simulate and summary calls."""
    def wrap_task(task):
        return dataclasses.replace(
            task,
            simulate=tracer.wrap("simulators.simulate", task.simulate),
            simulate_raw=tracer.wrap("simulators.simulate", task.simulate_raw),
            summary=tracer.wrap("simulators.summary", task.summary))
    return wrap_task


def adapt_fell_back(res) -> bool:
    """True when adapt ran the optimizer but kept the observed summary."""
    return bool(res.detected and not res.converged
                and np.array_equal(res.s_star, res.s_initial)
                and res.objective_final == res.objective_initial)


def _adapt_attrs(res) -> dict:
    return {"detected": bool(res.detected), "fallback": adapt_fell_back(res),
            "finite": bool(np.all(np.isfinite(res.s_star)))}


def _median_heuristic_with_peak(tracer: Tracer, fn):
    """Setup-time median heuristic. Its first call records the tracemalloc
    peak; tracing every allocation slows that call several-fold, so the
    later calls give its time."""
    calls = []

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span("kernels.median_heuristic_setup") as idx:
            if calls:
                return fn(*args, **kwargs)
            calls.append(idx)
            tracemalloc.start()
            try:
                value = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tracer.attrs[idx] = {"peak_bytes": peak}
        return value
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced mdsum function at each name it is looked up by."""
    mods = {m: importlib.import_module(f"mdsum.{m}")
            for m in ("nn", "inference", "adaptation", "metrics", "harness")}

    def put(module: str, attr: str, name: str, **kw):
        mod = mods[module]
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), **kw))

    wrap_task = _task_wrapper(tracer)
    for module in ("harness", "metrics", "adaptation"):
        mod = mods[module]
        make_task = mod.make_task
        setattr(mod, "make_task",
                functools.wraps(make_task)(lambda *a, _f=make_task, **k: wrap_task(_f(*a, **k))))

    # simulators
    put("harness", "build_training_pool", "simulators.build_training_pool")
    put("harness", "save_pool", "simulators.save_pool")
    put("harness", "load_pool", "simulators.load_pool")
    # kernels
    mods["harness"].median_heuristic = _median_heuristic_with_peak(
        tracer, mods["harness"].median_heuristic)
    put("metrics", "median_heuristic", "kernels.median_heuristic_eval")
    put("harness", "mean_embedding", "kernels.mean_embedding")
    put("adaptation", "mean_embedding", "kernels.mean_embedding")
    # nn
    put("nn", "forward_batch", "nn.forward_batch")
    put("nn", "backward_from_output_grad", "nn.backward")
    put("nn", "adam_step", "nn.adam_step")
    put("inference", "fit_mlp", "nn.fit_mlp", attrs=lambda rep: {"epochs": rep.epochs})
    # optimize
    put("adaptation", "lbfgs_minimize", "optimize.lbfgs_minimize",
        attrs=lambda r: {"iterations": int(r[1])})
    # inference
    put("inference", "pool_feature_means", "inference.pool_feature_means")
    put("harness", "train_decoder", "inference.train_decoder")
    put("harness", "train_mdn", "inference.train_mdn")
    for fn in ("decoder_save", "engine_save"):
        put("harness", fn, f"inference.{fn}")
    for module in ("harness", "inference"):  # the benchmark calls these too
        for fn in ("decoder_load", "engine_load", "decoder_hash", "engine_hash",
                   "posterior_sample"):
            put(module, fn, f"inference.{fn}")
    put("adaptation", "decoder_objective", "inference.decoder_objective",
        result=lambda objective: tracer.wrap("inference.objective", objective))
    # adaptation
    put("harness", "calibrate_threshold", "adaptation.calibrate_threshold")
    put("harness", "adapt", "adaptation.adapt", attrs=_adapt_attrs)
    put("adaptation", "adapt", "adaptation.adapt", attrs=_adapt_attrs)
    # metrics
    put("harness", "sample_mmd", "metrics.sample_mmd")
    put("harness", "predictive_mmd", "metrics.predictive_mmd")
    # harness
    for fn in ("stage_pool", "stage_decoder", "stage_engine", "run_pipeline"):
        put("harness", fn, f"harness.{fn}")


def layer_metrics(tr: Tracer, facts: dict) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Times are medians over calls unless named as totals; "per query"
    counts are means over adapted queries; a layer that does no work on a
    workload reads 0.
    """
    names = np.asarray(tr.names, dtype=object)
    dur = tr.durations()
    phase = tr.nearest(["bench.setup", "bench.load", "bench.measure"])
    in_measure = np.array([p >= 0 and tr.names[p] == "bench.measure" for p in phase], dtype=bool)
    in_setup = np.array([p >= 0 and tr.names[p] == "bench.setup" for p in phase], dtype=bool)

    def med(name, scale=1.0, mask=None):
        sel = names == name
        if mask is not None:
            sel &= mask
        return float(np.median(dur[sel])) * scale if sel.any() else 0.0

    def attr(idx, key, default=None):
        return tr.attrs.get(int(idx), {}).get(key, default)

    out = {}
    # adapted queries: adapt spans in the timed phase whose gate triggered
    adapt_of = tr.nearest(["adaptation.adapt"])
    adapt_idx = np.flatnonzero((names == "adaptation.adapt") & in_measure)
    adapted = {int(i) for i in adapt_idx if attr(i, "detected")}
    plain = [int(i) for i in adapt_idx if not attr(i, "detected") and attr(i, "finite")]
    in_adapted = np.array([a in adapted for a in adapt_of], dtype=bool)
    n_adapted = len(adapted)

    def per_adapted(name):
        return float(np.sum((names == name) & in_adapted)) / n_adapted if n_adapted else 0.0

    rounds = max(1, facts["rounds"])
    rows = facts["rows"]

    # simulators
    out["simulators.pool_s"] = (med("simulators.build_training_pool"), "s")
    out["simulators.pool_save_s"] = (med("simulators.save_pool"), "s")
    out["simulators.pool_mb"] = (facts["sizes_mb"]["pool"], "MB")
    out["simulators.summary_ms"] = (med("simulators.summary", 1e3), "ms")
    sims = float(np.sum((names == "simulators.simulate") & in_measure))
    out["simulators.simulate_calls_per_row"] = (sims / rows if rows else 0.0, "count")
    # kernels
    setup_mh = np.flatnonzero(names == "kernels.median_heuristic_setup")
    untraced = [dur[i] for i in setup_mh if attr(i, "peak_bytes") is None]
    out["kernels.median_heuristic_setup_s"] = (float(np.median(untraced)) if untraced else 0.0, "s")
    peaks = [attr(i, "peak_bytes", 0) for i in setup_mh]
    out["kernels.median_heuristic_peak_mb"] = (max(peaks, default=0) / 1e6, "MB")
    # per results row: sample_mmd's sampled calls and predictive_mmd's small
    # exact ones are two populations, so a median over calls would jump
    mh_eval = float(np.sum(dur[(names == "kernels.median_heuristic_eval") & in_measure]))
    out["kernels.median_heuristic_eval_ms"] = (1e3 * mh_eval / rows if rows else 0.0, "ms")
    out["kernels.mean_embedding_ms"] = (med("kernels.mean_embedding", 1e3, in_measure), "ms")
    # nn
    trainer = tr.nearest(["inference.train_decoder", "inference.train_mdn"])
    for key, parent in (("nn.epochs_decoder", "inference.train_decoder"),
                        ("nn.epochs_mdn", "inference.train_mdn")):
        fits = [i for i in np.flatnonzero(names == "nn.fit_mlp")
                if trainer[i] >= 0 and tr.names[trainer[i]] == parent]
        out[key] = (float(attr(fits[0], "epochs", 0)) if fits else 0.0, "count")
    in_fit = tr.nearest(["nn.fit_mlp"]) >= 0
    steps = float(np.sum((names == "nn.adam_step") & in_fit))
    for key, name in (("nn.forward_ms", "nn.forward_batch"), ("nn.backward_ms", "nn.backward"),
                      ("nn.adam_ms", "nn.adam_step")):
        total = float(np.sum(dur[(names == name) & in_fit]))
        out[key] = (1e3 * total / steps if steps else 0.0, "ms")
    out["nn.forward_batch_calls_per_query"] = (per_adapted("nn.forward_batch"), "count")
    # optimize
    lbfgs = np.flatnonzero((names == "optimize.lbfgs_minimize") & in_measure)
    iters = [attr(i, "iterations", 0) for i in lbfgs]
    out["optimize.iterations_per_query"] = (float(np.mean(iters)) if iters else 0.0, "count")
    out["optimize.lbfgs_ms"] = (med("optimize.lbfgs_minimize", 1e3, in_measure), "ms")
    # inference
    out["inference.pool_feature_means_s"] = (med("inference.pool_feature_means"), "s")
    out["inference.train_decoder_s"] = (med("inference.train_decoder"), "s")
    out["inference.train_mdn_s"] = (med("inference.train_mdn"), "s")
    out["inference.decoder_save_ms"] = (med("inference.decoder_save", 1e3), "ms")
    out["inference.engine_save_ms"] = (med("inference.engine_save", 1e3), "ms")
    out["inference.decoder_load_ms"] = (med("inference.decoder_load", 1e3), "ms")
    out["inference.engine_load_ms"] = (med("inference.engine_load", 1e3), "ms")
    out["inference.decoder_hash_ms"] = (med("inference.decoder_hash", 1e3), "ms")
    out["inference.decoder_mb"] = (facts["sizes_mb"]["decoder"], "MB")
    out["inference.engine_mb"] = (facts["sizes_mb"]["engine"], "MB")
    out["inference.objective_evals_per_query"] = (per_adapted("inference.objective"), "count")
    out["inference.objective_eval_us"] = (med("inference.objective", 1e6, in_measure), "us")
    out["inference.posterior_sample_ms"] = (med("inference.posterior_sample", 1e3, in_measure), "ms")
    # adaptation
    out["adaptation.calibrate_ms"] = (med("adaptation.calibrate_threshold", 1e3), "ms")
    plain_ms = 1e3 * dur[plain] if plain else np.zeros(1)
    adapted_ms = 1e3 * dur[sorted(adapted)] if adapted else np.zeros(1)
    out["adaptation.adapt_plain_ms"] = (float(np.median(plain_ms)), "ms")
    out["adaptation.adapt_adapted_ms"] = (float(np.median(adapted_ms)), "ms")
    out["adaptation.adapt_adapted_ms_p90"] = (float(np.quantile(adapted_ms, 0.9)), "ms")
    out["adaptation.flagged_clean"] = (float(facts["flagged_clean"]), "count")
    out["adaptation.flagged_contaminated"] = (float(facts["flagged_contaminated"]), "count")
    falls = sum(1 for i in adapted if attr(i, "fallback"))
    out["adaptation.fallbacks"] = (falls / rounds, "count")
    # metrics
    out["metrics.sample_mmd_ms"] = (med("metrics.sample_mmd", 1e3), "ms")
    out["metrics.predictive_mmd_ms"] = (med("metrics.predictive_mmd", 1e3), "ms")
    # harness
    for key, name in (("harness.stage_pool_s", "harness.stage_pool"),
                      ("harness.stage_decoder_s", "harness.stage_decoder"),
                      ("harness.stage_engine_s", "harness.stage_engine")):
        out[key] = (med(name, mask=in_setup), "s")
    framed = {"harness.stage_pool", "harness.stage_decoder", "harness.stage_engine",
              "inference.decoder_hash", "inference.engine_hash"}
    parents = np.asarray(tr.parents, dtype=np.int64)
    evaluate = []
    for i in np.flatnonzero(names == "harness.run_pipeline"):
        children = np.flatnonzero(parents == i)
        staged = sum(dur[c] for c in children if tr.names[c] in framed)
        evaluate.append(dur[i] - staged)
    out["harness.evaluate_s"] = (float(np.median(evaluate)) if evaluate else 0.0, "s")
    out["harness.rows"] = (float(facts["rows_per_round"]), "count")
    return out
