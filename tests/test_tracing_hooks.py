"""The benchmark's tracer must still find every name it patches in mdsum.

perfbench/tracing.py wraps mdsum functions at the module attributes they
are looked up by, so a src change that drops or renames one of them breaks
every traced benchmark run with AttributeError. install runs in a fresh
interpreter, because it patches the package for the life of the process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracing.install(tracing.Tracer())
import mdsum.nn
assert mdsum.nn.forward_batch.__wrapped__ is not None
"""


def test_perfbench_tracer_installs_on_the_package():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
