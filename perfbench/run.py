"""Benchmark of mdsum: set-up, query and evaluation, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oup-serve --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run wraps mdsum's public functions in
spans and reports the per-layer metrics instead. Progress notes, the
results-CSV digests and the checks that failed go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread: on 2 cores the default two OpenBLAS threads spent twice
# the CPU time of one thread for the same wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mdsum" / "__init__.py").is_file():
        print(f"perfbench: no mdsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = workloads.Run(name=args.workload, seed=args.seed, seconds=args.seconds, out=out)
    if args.trace:
        run.tracer = tracing.Tracer()
        tracing.install(run.tracer)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for name, (value, unit) in run.metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}", file=sys.stderr)
    if args.trace:
        trace_path = OUT_ROOT / f"trace-{args.workload}.tsv"
        run.tracer.write(trace_path)
        print(f"{args.workload}: {len(run.tracer.names)} spans written to {trace_path}",
              file=sys.stderr)
        print(f"{'span':40} {'calls':>8} {'total s':>9} {'self s':>9}", file=sys.stderr)
        for name, calls, total, own in run.tracer.summary()[:15]:
            print(f"{name:40} {calls:8d} {total:9.3f} {own:9.3f}", file=sys.stderr)
        reported = tracing.layer_metrics(run.tracer, run.facts)
    else:
        reported = run.metrics
    for what in run.failures:
        print(f"{args.workload}: CHECK FAILED: {what}", file=sys.stderr)

    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
