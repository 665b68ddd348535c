"""Command-line interface.

Subcommands: simulate (pool), train (pool, decoder with its calibrated
gate, and posterior engine), adapt (one observed dataset), evaluate (every
stage, each served from cache when present, then the evaluation grid),
summarize, verify. Only evaluate takes --jobs; evaluate and adapt take
--no-gate. Configs are JSON. Exit codes: 0 success, 2 configuration/usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .util import NumericalError, replacing

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="experiment config file (JSON)")
    p.add_argument("--out-dir", default="runs", help="artifact/cache directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master_seed")


def _add_no_gate(p: argparse.ArgumentParser):
    p.add_argument("--no-gate", action="store_true",
                   help="disable the misspecification gate (always adapt)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsum",
        description="Robust test-time summary adaptation for amortized "
                    "simulation-based inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="build and cache the training pool")
    _add_common(p)

    p = sub.add_parser("train", help="train and cache the decoder (with its calibrated "
                                     "gate) and the posterior engine")
    _add_common(p)

    p = sub.add_parser("adapt", help="adapt one observed dataset against a decoder bundle")
    p.add_argument("--model", required=True, help="decoder bundle JSON")
    p.add_argument("--data", required=True, help="observed dataset (.npz, .npy or .csv)")
    p.add_argument("--out", default=None, help="write the result JSON here (default stdout)")
    _add_no_gate(p)

    p = sub.add_parser("evaluate", help="run every stage (cached) and the evaluation grid")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for evaluation")
    _add_no_gate(p)

    p = sub.add_parser("summarize", help="aggregate results CSVs per grid cell")
    p.add_argument("csv", nargs="+", help="results CSV paths")
    p.add_argument("--out", default=None, help="write the summary CSV here")

    p = sub.add_parser("verify", help="check golden fixtures against regenerated results")
    p.add_argument("--fixtures", required=True, help="fixture directory")
    p.add_argument("--out-dir", default=None,
                   help="scratch directory for regeneration (default: temp)")
    return parser


def _load_config(args):
    from .harness import config_load
    cfg = config_load(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    if getattr(args, "no_gate", False):
        cfg.gate = False
    return cfg


def _load_observed(path):
    p = Path(path)
    if p.suffix == ".npz":
        with np.load(p, allow_pickle=False) as z:
            if not z.files:
                raise ValueError(f"{p} holds no arrays")
            key = "data" if "data" in z.files else z.files[0]
            return np.asarray(z[key], dtype=np.float64)
    if p.suffix == ".npy":
        return np.asarray(np.load(p, allow_pickle=False), dtype=np.float64)
    return np.loadtxt(p, delimiter=",", dtype=np.float64, ndmin=2)


def _cmd_simulate(args) -> int:
    from .harness import build_task, stage_pool
    cfg = _load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pool, path = stage_pool(cfg, out, task=build_task(cfg))
    print(f"pool: {path} ({pool.thetas.shape[0]} records)")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .harness import build_task, needs_pool, stage_decoder, stage_engine, stage_pool
    cfg = _load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    task = build_task(cfg)
    pool = stage_pool(cfg, out, task=task)[0] if needs_pool(cfg, out) else None
    dec, _, dec_path = stage_decoder(cfg, out, pool=pool, task=task)
    engine, eng_path = stage_engine(cfg, out, pool=pool, task=task)
    print(f"decoder: {dec_path} (threshold {dec.threshold})")
    print(f"engine: {eng_path}")
    return EXIT_OK


def _cmd_adapt(args) -> int:
    from .adaptation import adapt
    from .inference import decoder_load
    dec, _ = decoder_load(args.model)
    observed = _load_observed(args.data)
    result = adapt(dec, observed, gate=not args.no_gate)
    payload = {
        "s_initial": result.s_initial.tolist(),
        "s_star": result.s_star.tolist(),
        "objective_initial": result.objective_initial,
        "objective_final": result.objective_final,
        "detected": result.detected,
        "statistic": result.statistic,
        "threshold": result.threshold,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with replacing(args.out) as fh:
            fh.write((text + "\n").encode("utf-8"))
    else:
        print(text)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .harness import run_pipeline
    cfg = _load_config(args)
    manifest = run_pipeline(cfg, args.out_dir, jobs=args.jobs)
    print(f"results: {Path(args.out_dir) / manifest['artifacts']['results']} "
          f"({manifest['n_rows']} rows)")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    from .harness import summarize, write_summary_csv
    rows, table = summarize(args.csv)
    print(table)
    if args.out:
        write_summary_csv(rows, args.out)
        print(f"summary: {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .fixtures import discover_fixtures, verify_fixture
    fixtures = discover_fixtures(args.fixtures)
    if not fixtures:
        print(f"no fixtures found under {args.fixtures}", file=sys.stderr)
        return EXIT_CONFIG
    failed = 0
    for fx in fixtures:
        report = verify_fixture(fx, scratch_dir=args.out_dir)
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {fx.name}")
        for line in report.divergences:
            print(f"  {line}")
        failed += 0 if report.passed else 1
    return EXIT_OK if failed == 0 else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "adapt": _cmd_adapt,
    "evaluate": _cmd_evaluate,
    "summarize": _cmd_summarize,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
