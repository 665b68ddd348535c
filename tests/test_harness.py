import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest
from helpers import fill_the_disk

import mdsum.harness
from mdsum import simulators
from mdsum.harness import (
    CSV_HEADER,
    ExperimentConfig,
    StageError,
    _engine_key,
    config_from_dict,
    config_hash,
    config_load,
    config_to_dict,
    read_results_csv,
    run_pipeline,
    summarize,
    write_summary_csv,
)
from mdsum.inference import decoder_load
from mdsum.simulators import TASKS, gaussian_task

TINY = {
    "task": "gaussian",
    "d": 2,
    "n_obs": 15,
    "n_train": 300,
    "n_features": 16,
    "max_epochs": 8,
    "patience": 5,
    "n_test_datasets": 3,
    "n_posterior_samples": 100,
    "n_predictive": 20,
    "contamination": [{"eps": 0.0}, {"eps": 0.5, "delta": 4.0}],
    "master_seed": 3,
}


# The engine stage key of each task's default config per ARTIFACT_VERSION.
# The key folds in the engine its task record names (analytic or mdn).
ENGINE_KEYS = {
    1: {"gaussian": "68efe92964c39b83", "factor": "8fc960e65139a4e1",
        "oup": "3424d9ff8faf4952", "sir": "7e3e3b4e50b2a39c"},
    2: {"gaussian": "41397c08c9a58faf", "factor": "1e8dfb875d0e5eb9",
        "oup": "8ab0c037c9495932", "sir": "ad65b65fc4bcca0a"},
    3: {"gaussian": "0e3c0dc3742f6fd0", "factor": "dea3112c40bdd7b5",
        "oup": "e05d004139f35814", "sir": "35395c1a1530a8df"},
}


def _default_engine_key(task):
    return ENGINE_KEYS.get(mdsum.harness.ARTIFACT_VERSION, {}).get(task)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = config_from_dict({"task": "gaussian"})
    assert cfg.n_train == 50_000
    assert _engine_key(cfg) == _default_engine_key("gaussian")
    assert cfg.horizon is None
    assert cfg.gate is True
    assert cfg.methods == ["npe_plain", "npe_mds"]
    assert cfg.contamination == [{"kind": "row_outliers", "eps": 0.0, "delta": 0.0}]


def test_trajectory_task_defaults():
    cfg = config_from_dict({"task": "oup"})
    assert cfg.horizon == 25
    assert cfg.n_train == 10_000
    assert _engine_key(cfg) == _default_engine_key("oup")
    assert cfg.contamination[0]["kind"] == "offprior_trajectories"
    assert config_from_dict({"task": "sir"}).horizon == 365


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"task": "gaussian", "n_traIn": 100})
    with pytest.raises(ValueError, match="unknown contamination keys"):
        config_from_dict({"task": "gaussian",
                          "contamination": [{"eps": 0.1, "shift": 3.0}]})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        config_from_dict({"task": "mystery"})
    with pytest.raises(ValueError):
        config_from_dict({"task": "gaussian", "horizon": 10})
    with pytest.raises(ValueError):
        config_from_dict({"task": "gaussian", "methods": []})
    with pytest.raises(ValueError):
        config_from_dict({"task": "gaussian", "methods": ["npe_mds", "mcmc"]})
    with pytest.raises(ValueError):
        config_from_dict({"task": "gaussian", "n_test_datasets": 0})
    with pytest.raises(ValueError):
        config_from_dict({"task": "gaussian", "contamination": []})
    with pytest.raises(ValueError):
        config_from_dict({"task": "gaussian", "contamination": [{"eps": 2.0}]})
    with pytest.raises(ValueError):
        config_from_dict([1, 2, 3])


@pytest.mark.parametrize("task, kind, applies", [
    ("gaussian", "offprior_trajectories", "row_outliers"),
    ("sir", "row_outliers", "weekend_underreporting"),
    ("oup", "offprior_trajectories", "offprior_trajectories"),
    ("factor", "mystery", "row_outliers"),
])
def test_config_rejects_a_contamination_kind(task, kind, applies):
    # each task has one contamination kind, so a cell names none; another
    # task's kind used to load and fail only at the evaluate stage, after
    # every model was trained
    with pytest.raises(ValueError, match=f"unknown contamination keys: kind .*'{applies}'"):
        config_from_dict({"task": task, "contamination": [{"eps": 0.0},
                                                          {"kind": kind, "eps": 0.2}]})
    cfg = config_from_dict({"task": task, "contamination": [{"eps": 0.2}]})
    assert cfg.contamination == [{"kind": applies, "eps": 0.2, "delta": 0.0}]


def test_config_has_no_optimizer_key():
    # L-BFGS is the one query-time optimizer; the removed key is an error
    with pytest.raises(ValueError, match="unknown config keys: optimizer"):
        config_from_dict({"task": "gaussian", "optimizer": "lbfgs"})


@pytest.mark.parametrize("key, value", [
    ("alpha", 0.1), ("coverage_alpha", 0.1), ("engine", "mdn"), ("mdn_components", 2),
    ("learning_rate", 1e-3), ("batch_size", 64), ("record_timing", True)])
def test_fixed_values_are_not_config_keys(key, value):
    with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
        config_from_dict({"task": "gaussian", key: value})


def test_fixed_values_stay_readable():
    gauss, oup = config_from_dict({"task": "gaussian"}), config_from_dict({"task": "oup"})
    assert gauss.alpha == oup.coverage_alpha == 0.05
    assert (TASKS[gauss.task].engine, TASKS[oup.task].engine) == ("analytic", "mdn")
    assert not hasattr(gauss, "engine") and "engine" not in config_to_dict(gauss)


@pytest.mark.parametrize("task", sorted(TASKS))
def test_engine_key_holds_the_engine_of_the_task_record(task):
    assert _engine_key(config_from_dict({"task": task})) == _default_engine_key(task)


def test_a_fifth_task_needs_one_record(monkeypatch, tmp_path):
    # every per-task fact the harness, contamination and adaptation read is
    # in the task's simulators.TASKS record
    def toy_task(d, n_obs):
        return dataclasses.replace(gaussian_task(d, n_obs), name="toy")

    record = simulators.TaskRecord(build=toy_task, sizes=("d", "n_obs"), n_train=200,
                                   horizon=None, contamination="row_outliers",
                                   engine="mdn", frozen=None)
    monkeypatch.setitem(simulators.TASKS, "toy", record)
    defaults = config_from_dict({"task": "toy"})
    assert (defaults.n_train, defaults.horizon) == (200, None)
    with pytest.raises(ValueError, match="horizon does not apply to task 'toy'"):
        config_from_dict({"task": "toy", "horizon": 5})
    cfg = config_from_dict({**TINY, "task": "toy", "n_test_datasets": 2,
                            "contamination": [{"eps": 0.2, "delta": 4.0}]})
    assert cfg.contamination == [{"kind": "row_outliers", "eps": 0.2, "delta": 4.0}]
    manifest = run_pipeline(cfg, tmp_path, jobs=1)
    rows = read_results_csv(tmp_path / manifest["artifacts"]["results"])
    assert len(rows) == 4 and {r["task"] for r in rows} == {"toy"}
    # an MDN engine has no exact posterior to score against
    assert all(r["posterior_mmd"] is None for r in rows)
    dec, _ = decoder_load(tmp_path / manifest["artifacts"]["decoder"])
    assert dec.task.name == "toy" and dec.task.params == {"d": 2, "n_obs": 15}


@pytest.mark.parametrize("patch", [
    {"gate": "false"}, {"gate": 0}, {"n_obs": 10.5}, {"n_obs": True},
    {"n_test_datasets": True}, {"n_train": 1000.0}, {"max_epochs": "5"},
    {"master_seed": 1.0}, {"master_seed": False}, {"holdout_frac": "0.1"},
    {"holdout_frac": True}, {"contamination": [{"eps": "0.2"}]},
    {"contamination": [{"eps": 0.2, "delta": False}]},
    {"methods": ["npe_plain", "npe_plain"]}, {"methods": "npe_plain"},
    {"task": "oup", "horizon": 25.0}, {"task": "oup", "horizon": 0},
], ids=repr)
def test_config_rejects_values_of_the_wrong_type(patch):
    with pytest.raises(ValueError):
        config_from_dict({"task": "gaussian", **patch})


def test_config_keeps_numbers_of_either_json_type():
    cfg = config_from_dict({"task": "gaussian", "master_seed": -3,
                            "contamination": [{"eps": 0, "delta": 2}]})
    assert cfg.master_seed == -3
    assert cfg.contamination[0]["eps"] == 0.0 and cfg.contamination[0]["delta"] == 2.0


def test_config_load_json_and_yaml(tmp_path):
    doc = {"task": "gaussian", "n_obs": 13}
    jpath = tmp_path / "c.json"
    jpath.write_text(json.dumps(doc), encoding="utf-8")
    assert config_load(jpath).n_obs == 13

    # JSON is the one format, whatever the suffix
    for name in ("c.yaml", "config"):
        ypath = tmp_path / name
        ypath.write_text("task: gaussian\nn_obs: 13\n", encoding="utf-8")
        with pytest.raises(ValueError):
            config_load(ypath)


def test_config_load_rejects_malformed(tmp_path):
    null = tmp_path / "null.json"
    null.write_text("null", encoding="utf-8")
    with pytest.raises(ValueError, match="must be a mapping"):
        config_load(null)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        config_load(bad_json)


def test_config_hash_is_stable_and_sensitive():
    a = config_from_dict(dict(TINY))
    b = config_from_dict(dict(TINY))
    assert config_hash(a) == config_hash(b)
    c = config_from_dict({**TINY, "master_seed": 4})
    assert config_hash(c) != config_hash(a)
    assert config_to_dict(a)["task"] == "gaussian"


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = config_from_dict(dict(TINY))
    manifest = run_pipeline(cfg, out, jobs=1)
    return cfg, out, manifest


def test_pipeline_writes_complete_manifest(tiny_run):
    cfg, out, manifest = tiny_run
    assert manifest["complete"] is True
    assert manifest["n_rows"] == 2 * 3 * 2  # cells x datasets x methods
    assert manifest["config_hash"] == config_hash(cfg)
    assert set(manifest["stage_keys"]) == {"pool", "decoder", "engine"}
    assert "version" in manifest and "created_at" in manifest
    assert "decoder_hash" in manifest and "engine_hash" in manifest
    for name in manifest["artifacts"].values():
        assert (out / name).exists()
    on_disk = json.loads((out / f"manifest-{config_hash(cfg)[:16]}.json").read_text())
    assert on_disk["complete"] is True


def test_pipeline_csv_shape_and_content(tiny_run):
    cfg, out, manifest = tiny_run
    csv_path = out / manifest["artifacts"]["results"]
    text = csv_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    rows = read_results_csv(csv_path)
    assert len(rows) == 12
    assert {r["method"] for r in rows} == {"npe_plain", "npe_mds"}
    assert {r["eps"] for r in rows} == {0.0, 0.5}
    for r in rows:
        assert r["task"] == "gaussian"
        assert np.isfinite(r["rmse"]) and r["rmse"] >= 0.0
        assert 0.0 <= r["coverage"] <= 1.0
        assert r["posterior_mmd"] is not None  # analytic reference exists
    # the detection flag is a per-dataset property, equal across methods
    by_key = {}
    for r in rows:
        by_key.setdefault((r["eps"], r["seed"]), set()).add(r["detected"])
    assert all(len(v) == 1 for v in by_key.values())
    # convenience copy matches the hashed CSV byte for byte
    assert (out / "results.csv").read_bytes() == csv_path.read_bytes()


def test_pipeline_contaminated_cell_degrades_plain_method(tiny_run):
    cfg, out, manifest = tiny_run
    rows = read_results_csv(out / manifest["artifacts"]["results"])
    plain_clean = [r["rmse"] for r in rows
                   if r["method"] == "npe_plain" and r["eps"] == 0.0]
    plain_bad = [r["rmse"] for r in rows
                 if r["method"] == "npe_plain" and r["eps"] == 0.5]
    # eps=0.5 at delta=4 wrecks the plain summary on every dataset
    assert min(plain_bad) > max(plain_clean)
    # the gate catches most contaminated datasets even with this tiny,
    # deliberately under-trained decoder, and passes most clean ones
    flagged_bad = [r["detected"] for r in rows
                   if r["eps"] == 0.5 and r["method"] == "npe_plain"]
    flagged_clean = [r["detected"] for r in rows
                     if r["eps"] == 0.0 and r["method"] == "npe_plain"]
    assert sum(flagged_bad) >= 2
    assert sum(flagged_clean) <= 1


def test_pipeline_rerun_is_byte_identical_and_cached(tiny_run):
    cfg, out, manifest = tiny_run
    csv_path = out / manifest["artifacts"]["results"]
    before = csv_path.read_bytes()
    pool_mtime = (out / manifest["artifacts"]["pool"]).stat().st_mtime_ns
    manifest2 = run_pipeline(cfg, out, jobs=1)
    assert csv_path.read_bytes() == before
    assert (out / manifest["artifacts"]["pool"]).stat().st_mtime_ns == pool_mtime
    assert manifest2["decoder_hash"] == manifest["decoder_hash"]
    assert manifest2["engine_hash"] == manifest["engine_hash"]


def test_a_saved_decoder_holds_the_model_alone(tiny_run):
    # the gate is calibrated on the holdout before the save; the holdout is not saved
    cfg, out, manifest = tiny_run
    saved = json.loads((out / manifest["artifacts"]["decoder"]).read_text(encoding="utf-8"))
    assert list(saved) == ["kind", "task", "feature_map", "regressor", "summary_mean",
                           "summary_std", "threshold"]
    assert saved["threshold"] is not None


def test_a_warm_run_reads_no_pool(tiny_run, tmp_path, monkeypatch):
    # both models are cached, so no stage trains; the manifest still names the pool
    cfg, out, manifest = tiny_run
    for stage in ("pool", "decoder", "engine"):
        shutil.copy(out / manifest["artifacts"][stage], tmp_path)

    def no_pool(*args):
        raise AssertionError("a warm run read or built the pool")

    monkeypatch.setattr(mdsum.harness, "load_pool", no_pool)
    monkeypatch.setattr(mdsum.harness, "build_training_pool", no_pool)
    manifest2 = run_pipeline(cfg, tmp_path, jobs=1)
    assert manifest2["artifacts"] == manifest["artifacts"]
    assert ((tmp_path / manifest["artifacts"]["results"]).read_bytes()
            == (out / manifest["artifacts"]["results"]).read_bytes())


def test_an_mdn_run_reads_the_pool_once_for_both_stages(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_training_pool", "load_pool"):
        monkeypatch.setattr(mdsum.harness, name, counted(getattr(mdsum.harness, name)))
    cfg = config_from_dict(dict(GOLDEN_CONFIGS["oup"]))
    manifest = run_pipeline(cfg, tmp_path, jobs=1)
    assert calls == ["build_training_pool"]  # cold: built once, handed to both stages
    (tmp_path / manifest["artifacts"]["engine"]).unlink()
    calls.clear()
    assert run_pipeline(cfg, tmp_path, jobs=1)["engine_hash"] == manifest["engine_hash"]
    assert calls == ["load_pool"]  # the engine alone retrains


@pytest.mark.parametrize("target", ["manifest", "results.csv"])
def test_a_failed_run_write_keeps_the_old_file(tiny_run, tmp_path, monkeypatch, target):
    cfg, out, manifest = tiny_run
    for name in manifest["artifacts"].values():
        shutil.copy(out / name, tmp_path)
    name = f"manifest-{config_hash(cfg)[:16]}.json" if target == "manifest" else target
    (tmp_path / name).write_bytes(b"old\n")
    fill_the_disk(monkeypatch, name)
    with pytest.raises(OSError):
        run_pipeline(cfg, tmp_path, jobs=1)
    assert (tmp_path / name).read_bytes() == b"old\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_artifact_version_change_reruns_every_stage(tiny_run, tmp_path, monkeypatch):
    cfg, out, manifest = tiny_run
    names = [*manifest["artifacts"].values(), f"manifest-{config_hash(cfg)[:16]}.json"]
    for name in names:
        shutil.copy2(out / name, tmp_path)
    old = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
    monkeypatch.setattr(mdsum.harness, "ARTIFACT_VERSION", mdsum.harness.ARTIFACT_VERSION + 1)
    manifest2 = run_pipeline(cfg, tmp_path, jobs=1)
    assert manifest2["artifact_version"] == manifest["artifact_version"] + 1
    # every stage and the evaluation wrote its file under a new key ...
    fresh = [*manifest2["artifacts"].values(), f"manifest-{config_hash(cfg)[:16]}.json"]
    assert len(set(fresh)) == 5 and not set(fresh) & set(old)
    assert all((tmp_path / name).exists() for name in fresh)
    # ... leaving the old files as they were
    for name, (data, mtime) in old.items():
        assert (tmp_path / name).read_bytes() == data
        assert (tmp_path / name).stat().st_mtime_ns == mtime
    # the code is the same, so the rebuilt run reproduces the old one
    assert ((tmp_path / manifest2["artifacts"]["results"]).read_bytes()
            == old[manifest["artifacts"]["results"]][0])
    assert manifest2["decoder_hash"] == manifest["decoder_hash"]


# One tiny cold run per task. The Gaussian run takes 1000 posterior
# samples, so each posterior_mmd row measures the sampled median heuristic;
# the other tasks train an MDN engine, the factor task on its frozen
# loading and the SIR task on a 6-wide summary of 365-day paths. Digests
# are of float64 bytes, so they hold for one numpy and BLAS build.
_GOLDEN_MDN = {"n_train": 300, "n_features": 16, "max_epochs": 8, "patience": 5,
               "n_test_datasets": 2, "n_posterior_samples": 200, "n_predictive": 20,
               "master_seed": 18}
GOLDEN_CONFIGS = {
    "gaussian": {**TINY, "n_posterior_samples": 1000, "n_test_datasets": 2,
                 "contamination": [{"eps": 0.2, "delta": 4.0}, {"eps": 0.1, "delta": 10.0}],
                 "master_seed": 18},
    "oup": {"task": "oup", "n_obs": 10, "horizon": 8, **_GOLDEN_MDN,
            "contamination": [{"eps": 0.2, "delta": 4.0}, {"eps": 0.5}]},
    "factor": {"task": "factor", "obs_dim": 5, "n_obs": 15, **_GOLDEN_MDN,
               "contamination": [{"eps": 0.2, "delta": 4.0}, {"eps": 0.1, "delta": 10.0}]},
    "sir": {"task": "sir", "n_obs": 6, "horizon": 365, **_GOLDEN_MDN, "n_train": 200,
            "contamination": [{"eps": 0.5}, {"eps": 0.2}]},
}
# (decoder_hash, engine_hash, then the sha256 of the results CSV, the saved
# decoder file and the saved engine file) per ARTIFACT_VERSION. Model hashes
# ignore how a file renders its floats; the file digests do not.
GOLDEN_DIGESTS = {
    1: {
        "gaussian": ("8e187a7eb2553e31c2ea7218aaab048718f13117f8b9a46f0c7f07de99a3de0f",
                     "1759c3368a5bd17da0a5a2bbf1b2f41652bf5db51e32536b69e9a040a307bebc",
                     "6b57feb2b079392e32c1ee92463604d538f28ecb8dc6c86bbb7d83179338ed24",
                     "5412a807560dca7ee22018de43ffd015acf0c120934832a17236a5c84878399c",
                     "b4586eb6112639679ae48557ac6edba8388e70445517c293b44bdabd8a22a2ba"),
        "oup": ("16552ac7f64c6fa53c0a4c689c0cc2f803186fd0b28338535d6ea3c451994527",
                "68f93d08de66d07eb05161da61250ba22da7dde472890b1f4623d32bedefb457",
                "f4d97c64f086c02bc789cc51de56d8da9f8cb2bb8ce779820908cfa9eff0f9c9",
                "04ba91f55cdaa9068c9791f0065e92ef46457bf2f59272fce98a40e12436aee5",
                "ccbcc897f7e593e2d772a7f9db61754c6e4b833dc418e5c834002a3b094b89cd"),
        "factor": ("6c1d83ba357e00a4888203eed43ef785f6e65f7375c5094dee544139d4a12181",
                   "6e91388df6e12258ac6b6d618d6711d901f46b65c7dae88a03372b62fd656130",
                   "acdf79939c53fc2bfaaadd1f52a2b7dacda5fe69299e55071fcc3994ffeb7fd8",
                   "a907a902fbd938154154cbf8291ce93555b6b86eb8e621e8676a3378f01095db",
                   "148d05649e56cc30fedb5a511c4e1757801099f3204db5712c45a04f62cf9ca9"),
        "sir": ("8af90b45ac83cbc88dc765eb870d379aca38c5e94e3c30b3e9c6ac38411aa4f9",
                "c082424af99940ab568922f36d76f193791649492d6ef47e7bd6a73dd184829b",
                "aec14a4a0b3366abef14a65c6495703f6a99ee8c4ae05ae168ac135dcef3f473",
                "67e45709d95f14bbba50b769a62b91261b401e262167fb589c93aed3c990acc2",
                "262465db6b2de9e508e088da60e6116878fea8d71e7e28d02bccdc6fc08d4e34"),
    },
}
# Version 2 scores every method of an item under one kernel from the item's
# reference set, and each golden run gained its second cell (version 1's
# results digests are of the one-cell runs). No model moved: the model
# hashes and model-file digests are version 1's, and only the results differ.
_RESULTS_V2 = {
    "gaussian": "faf125f3faed6151a0b2b072882d188a030c7ebf3854bf9ec75eb29a705dc466",
    "oup": "64676af9a5cd4c6ee9b9426e13d5cee949a041834b8732799032149e80b2d1ab",
    "factor": "569daf93e1e7d8fb672f0b5f2a33c0d941f5ff4e70080644509ba74f6234461f",
    "sir": "d91c98432cdbf7888acb2b7e293326843c590600f8bd89ab9c10588c1a5f2d7f",
}
GOLDEN_DIGESTS[2] = {name: (*digests[:2], _RESULTS_V2[name], *digests[3:])
                     for name, digests in GOLDEN_DIGESTS[1].items()}
# Version 3 saves no holdout in the decoder file. The models, their hashes,
# the engine files and the results are version 2's; only the decoder file
# digests differ.
_DECODER_FILES_V3 = {
    "gaussian": "3b3f0c0a22541f65d50eaf654c05c796a910bf51ec8d9035dfb4cb0383768205",
    "oup": "1f4bdb7e74100bc2c8bc5753a8cee5f2bcc73632e941c3ac167bf5b599447f92",
    "factor": "12a61e467fa7a661f5cd9953a42fce6d1760f0d166d38ede4ae21b866010608d",
    "sir": "ab0015e9b0e49709e326a548f424d0bf103c6395ea663a672bdf9d5f24f2b7fd",
}
GOLDEN_DIGESTS[3] = {name: (*digests[:3], _DECODER_FILES_V3[name], digests[4])
                     for name, digests in GOLDEN_DIGESTS[2].items()}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_outputs_match_the_golden_digests_of_artifact_version(name, tmp_path):
    version = mdsum.harness.ARTIFACT_VERSION
    manifest = run_pipeline(config_from_dict(dict(GOLDEN_CONFIGS[name])), tmp_path, jobs=1)
    files = (tmp_path / manifest["artifacts"][k] for k in ("results", "decoder", "engine"))
    got = (manifest["decoder_hash"], manifest["engine_hash"],
           *(hashlib.sha256(f.read_bytes()).hexdigest() for f in files))
    assert got == GOLDEN_DIGESTS.get(version, {}).get(name), (
        f"{name}: a model, model file or results row differs from the digests pinned for "
        f"ARTIFACT_VERSION {version}; if the change is meant, raise "
        f"harness.ARTIFACT_VERSION and add its digests to GOLDEN_DIGESTS: {got}")


def test_pipeline_parallel_rows_match_serial(tiny_run, tmp_path):
    cfg, out, manifest = tiny_run
    serial = (out / manifest["artifacts"]["results"]).read_bytes()
    manifest_par = run_pipeline(cfg, tmp_path, jobs=2)
    parallel = (tmp_path / manifest_par["artifacts"]["results"]).read_bytes()
    assert parallel == serial
    assert manifest_par["decoder_hash"] == manifest["decoder_hash"]


def test_a_methods_scores_do_not_depend_on_the_other_methods_samples(tiny_run, tmp_path,
                                                                     monkeypatch):
    # npe_plain's posterior samples come from another stream; every npe_mds
    # row, its posterior_mmd and predictive_mmd included, keeps its bits
    cfg, out, manifest = tiny_run
    for stage in ("pool", "decoder", "engine"):
        shutil.copy(out / manifest["artifacts"][stage], tmp_path)
    real_derive_rng = mdsum.harness.derive_rng

    def other_plain_stream(seed, tag, *keys):
        if tag == "posterior" and keys[-1] == "npe_plain":
            seed += 1
        return real_derive_rng(seed, tag, *keys)

    monkeypatch.setattr(mdsum.harness, "derive_rng", other_plain_stream)
    manifest2 = run_pipeline(cfg, tmp_path, jobs=1)
    before = (out / manifest["artifacts"]["results"]).read_text().splitlines()[1:]
    after = (tmp_path / manifest2["artifacts"]["results"]).read_text().splitlines()[1:]
    assert len(before) == len(after) == 12
    for old, new in zip(before, after):
        if ",npe_mds," in old:
            assert new == old
        else:
            old_cols, new_cols = old.split(","), new.split(",")
            # the plain row's own posterior_mmd and predictive_mmd do move
            assert old_cols[7] != new_cols[7] and old_cols[8] != new_cols[8]


@pytest.mark.parametrize("jobs", [1, 2])
def test_audit_catches_a_model_changed_during_evaluation(tiny_run, tmp_path, monkeypatch, jobs):
    cfg, out, manifest = tiny_run
    for stage in ("pool", "decoder", "engine"):
        shutil.copy(out / manifest["artifacts"][stage], tmp_path)
    real_adapt = mdsum.harness.adapt

    def tampering_adapt(dec, *args, **kwargs):
        dec.regressor.weights[0][0, 0] += 1e-12
        return real_adapt(dec, *args, **kwargs)

    # forked workers inherit the patch, so at jobs=2 only their copies change
    monkeypatch.setattr(mdsum.harness, "adapt", tampering_adapt)
    with pytest.raises(StageError, match="frozen model artifacts changed"):
        run_pipeline(cfg, tmp_path, jobs=jobs)
    assert not (tmp_path / manifest["artifacts"]["results"]).exists()
    assert mdsum.harness._CTX is None


def test_pipeline_stage_failure_marks_manifest(tmp_path):
    # a two-record pool cannot reserve a holdout slice and still train
    cfg = config_from_dict({**TINY, "n_train": 2})
    with pytest.raises(ValueError, match="stage 'decoder' failed"):
        run_pipeline(cfg, tmp_path, jobs=1)
    manifest_path = tmp_path / f"manifest-{config_hash(cfg)[:16]}.json"
    on_disk = json.loads(manifest_path.read_text())
    assert on_disk["complete"] is False
    assert "error" in on_disk
    assert not (tmp_path / f"results-{config_hash(cfg)[:16]}.csv").exists()


def test_pipeline_rejects_bad_jobs(tiny_run, tmp_path):
    cfg, _, _ = tiny_run
    with pytest.raises(ValueError):
        run_pipeline(cfg, tmp_path, jobs=0)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

HAND_CSV = "\n".join([
    CSV_HEADER,
    "gaussian,npe_plain,0.2,3.0,0,1.0,0.9,0.5,0.4,2.0,true",
    "gaussian,npe_plain,0.2,3.0,1,3.0,0.7,0.7,0.6,4.0,false",
    "gaussian,npe_mds,0.2,3.0,0,0.5,0.95,0.2,0.3,1.0,true",
    "gaussian,npe_mds,0.2,3.0,1,1.5,0.85,0.4,0.5,3.0,false",
]) + "\n"


def test_summarize_hand_built_rows(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text(HAND_CSV, encoding="utf-8")
    summary_rows, table = summarize([path])
    assert len(summary_rows) == 2
    mds = next(r for r in summary_rows if r["method"] == "npe_mds")
    plain = next(r for r in summary_rows if r["method"] == "npe_plain")
    assert mds["n"] == 2 and plain["n"] == 2
    assert plain["rmse_median"] == pytest.approx(2.0)
    assert plain["rmse_iqr"] == pytest.approx(1.0)  # quartiles of {1, 3} are 1.5 / 2.5
    assert mds["rmse_median"] == pytest.approx(1.0)
    assert mds["summary_oracle_dist_median"] == pytest.approx(2.0)
    assert mds["detected_rate"] == pytest.approx(0.5)
    assert "npe_mds" in table and "npe_plain" in table
    assert table.split("\n")[0].split() == [
        "task", "method", "eps", "delta", "n", "rmse_median", "rmse_iqr", "coverage_median",
        "posterior_mmd_median", "predictive_mmd_median", "summary_oracle_dist_median",
        "detected_rate"]


def test_summarize_merges_multiple_csvs(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    p1.write_text(HAND_CSV, encoding="utf-8")
    p2.write_text(HAND_CSV, encoding="utf-8")
    summary_rows, _ = summarize([p1, p2])
    assert all(r["n"] == 4 for r in summary_rows)


def test_write_summary_csv_round_trip(tmp_path):
    src = tmp_path / "hand.csv"
    src.write_text(HAND_CSV, encoding="utf-8")
    summary_rows, _ = summarize([src])
    out = tmp_path / "summary.csv"
    write_summary_csv(summary_rows, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    # derived from the results columns; the header's bytes stay put
    assert lines[0] == (
        "task,method,eps,delta,n,rmse_median,rmse_iqr,coverage_median,coverage_iqr,"
        "posterior_mmd_median,posterior_mmd_iqr,predictive_mmd_median,predictive_mmd_iqr,"
        "summary_oracle_dist_median,summary_oracle_dist_iqr,detected_rate")


def test_a_failed_summary_write_keeps_the_old_file(tmp_path, monkeypatch):
    src = tmp_path / "hand.csv"
    src.write_text(HAND_CSV, encoding="utf-8")
    summary_rows, _ = summarize([src])
    out = tmp_path / "summary.csv"
    out.write_bytes(b"old\n")
    fill_the_disk(monkeypatch, "summary.csv")
    with pytest.raises(OSError):
        write_summary_csv(summary_rows, out)
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hand.csv", "summary.csv"]


def test_read_results_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_results_csv(path)


def test_read_results_csv_parses_empty_as_none(tmp_path):
    path = tmp_path / "na.csv"
    path.write_text(CSV_HEADER + "\n"
                    + "oup,npe_plain,0.0,0.0,0,1.0,0.9,,0.4,2.0,false\n",
                    encoding="utf-8")
    rows = read_results_csv(path)
    assert rows[0]["posterior_mmd"] is None
    assert rows[0]["detected"] is False
    assert rows[0]["seed"] == 0
