"""The benchmark's tooling must keep working on what mdsum writes and exports.

perfbench/tracing.py wraps mdsum functions at the module attributes they
are looked up by, so a src change that drops or renames one of them breaks
every traced benchmark run with AttributeError. One that changes the
optimizer's (x, iterations, converged) result breaks its iteration count,
and one that calls a traced function by another name makes its metrics
read 0. perfbench/workloads.py reads the saved decoder file with its own
parser, so a change to the file format breaks every oup-serve run. Both run
in a fresh interpreter: install patches the package for the life of the
process.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from helpers import fixed_decoder

from mdsum.inference import decoder_save

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2], sys.argv[3]]
import numpy as np
import tracing
tr = tracing.Tracer()
tracing.install(tr)
import mdsum.adaptation
import mdsum.nn
from helpers import fixed_decoder
assert mdsum.nn.forward_batch.__wrapped__ is not None
dec, _holdout = fixed_decoder()
data = np.random.default_rng(5).standard_normal((20, 2))
mdsum.adaptation.adapt(dec, data, gate=False)
spans = [i for i, name in enumerate(tr.names) if name == "optimize.lbfgs_minimize"]
assert len(spans) == 1, tr.names
assert type(tr.attrs[spans[0]]["iterations"]) is int, tr.attrs[spans[0]]
assert "inference.objective" in tr.names, tr.names

# training: 36 of 40 rows in batches of 16 are 3 steps an epoch, 2 epochs
import mdsum.inference
mdsum.nn.BATCH_SIZE = 16
rng = np.random.default_rng(6)
mlp = mdsum.nn.mlp_init([2, 4, 3], rng)
mdsum.inference.fit_mlp(mlp, rng.standard_normal((40, 2)), rng.standard_normal((40, 3)),
                        2, 2, rng)
names = np.asarray(tr.names, dtype=object)
(fit_idx,) = np.flatnonzero(names == "nn.fit_mlp")
assert tr.attrs[int(fit_idx)]["epochs"] == 2
fit = tr.nearest(["nn.fit_mlp"])
for name, calls in (("nn.forward_batch", 6 + 2), ("nn.backward", 6), ("nn.adam_step", 6)):
    inside = (names == name) & (fit >= 0)
    assert np.sum(inside) == calls, (name, tr.names)
    assert np.all(tr.durations()[inside] > 0), name
assert np.all(fit[(names == "nn.backward") | (names == "nn.adam_step")] >= 0)

# kernels: the median heuristic of evaluation and of set-up
import mdsum.harness
import mdsum.metrics
from pathlib import Path
ref = np.random.default_rng(7).standard_normal((30, 2))
mdsum.metrics.reference_mmds([ref + 0.5], ref)
assert tr.names.count("kernels.median_heuristic_eval") == 1, tr.names
cfg = mdsum.harness.config_from_dict({"task": "gaussian", "n_obs": 5, "n_train": 100,
                                      "n_features": 8, "max_epochs": 2, "patience": 2})
mdsum.harness.stage_decoder(cfg, Path(sys.argv[4]))
names = np.asarray(tr.names, dtype=object)
(setup_idx,) = np.flatnonzero(names == "kernels.median_heuristic_setup")
assert tr.attrs[int(setup_idx)]["peak_bytes"] > 0, tr.attrs[int(setup_idx)]
"""


READ_DECODER = """
import sys
from pathlib import Path
import numpy as np
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
arrays = workloads._decoder_arrays(Path(sys.argv[3]))
flat = {f"{key}{i}": a for key in ("weights", "biases") for i, a in enumerate(arrays[key])}
flat.update((key, arrays[key]) for key in ("mean", "std", "freqs", "phases"))
np.savez(sys.argv[4], **flat)
"""


def _run(script, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_tracer_installs_on_the_package(tmp_path):
    # one traced adapt call: perfbench wraps adaptation.lbfgs_minimize and
    # reads the iteration count from the second item of its result. Then one
    # traced fit_mlp: nn.forward_ms, nn.backward_ms and nn.adam_ms divide the
    # forward, backward and adam_step spans inside it by its adam_step count,
    # so each must be looked up through its module global, once a step.
    # Last, kernels.median_heuristic_eval_ms reads the span of
    # reference_mmds' median heuristic, and kernels.median_heuristic_setup_s
    # and _peak_mb the span of stage_decoder's, so both must be looked up
    # through their module's global too, or those metrics would read 0
    _run(SCRIPT, str(ROOT / "tests"), str(tmp_path))


def test_perfbench_reads_the_saved_decoder(tmp_path):
    dec, _ = fixed_decoder()
    decoder_save(dec, tmp_path / "decoder.json")
    _run(READ_DECODER, str(tmp_path / "decoder.json"), str(tmp_path / "arrays.npz"))
    with np.load(tmp_path / "arrays.npz") as read:
        expected = {"mean": dec.summary_mean, "std": dec.summary_std,
                    "freqs": dec.feature_map.frequencies, "phases": dec.feature_map.phases}
        for i, (w, b) in enumerate(zip(dec.regressor.weights, dec.regressor.biases)):
            expected[f"weights{i}"], expected[f"biases{i}"] = w, b
        assert sorted(read.files) == sorted(expected)
        for key, value in expected.items():
            assert np.array_equal(read[key], value), key
