import json
import shutil

import numpy as np
import pytest
from helpers import fill_the_disk, fixed_decoder, hex_encoded

import mdsum.harness
from mdsum.adaptation import adapt
from mdsum.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from mdsum.harness import config_from_dict, config_hash
from mdsum.inference import decoder_hash, decoder_load, decoder_save
from mdsum.util import derive_rng

TINY = {
    "task": "gaussian",
    "d": 2,
    "n_obs": 12,
    "n_train": 250,
    "n_features": 16,
    "max_epochs": 6,
    "patience": 4,
    "n_test_datasets": 2,
    "n_posterior_samples": 80,
    "n_predictive": 20,
    "contamination": [{"eps": 0.0}, {"eps": 0.4, "delta": 4.0}],
    "master_seed": 8,
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "config.json"
    p.write_text(json.dumps(TINY), encoding="utf-8")
    return p


@pytest.fixture(scope="module")
def bench_run(config_path, tmp_path_factory, capfdbinary=None):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["evaluate", "--config", str(config_path), "--out-dir", str(out)])
    assert code == EXIT_OK
    return out


def test_bench_produces_results(bench_run, config_path):
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    assert (bench_run / f"results-{key}.csv").exists()
    assert (bench_run / "results.csv").exists()
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    assert manifest["complete"] is True


def test_stagewise_commands_reuse_caches(bench_run, config_path, capsys):
    # every stage artifact already exists, so each command is a fast no-op
    for cmd in ("simulate", "train", "evaluate"):
        code = main([cmd, "--config", str(config_path), "--out-dir", str(bench_run)])
        assert code == EXIT_OK, cmd
    out = capsys.readouterr().out
    assert "pool:" in out and "decoder:" in out and "results:" in out


TINY_OUP = {**{k: v for k, v in TINY.items() if k not in ("task", "d", "contamination")},
            "task": "oup", "n_obs": 10, "horizon": 8, "contamination": [{"eps": 0.5}]}


@pytest.mark.parametrize("config", [TINY, TINY_OUP], ids=["analytic", "mdn"])
def test_a_warm_train_reads_no_pool(tmp_path, monkeypatch, capsys, config):
    # the second train finds both models cached, so it neither loads nor builds the pool
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK

    def no_pool(*args):
        raise AssertionError("a warm train read or built the pool")

    monkeypatch.setattr(mdsum.harness, "load_pool", no_pool)
    monkeypatch.setattr(mdsum.harness, "build_training_pool", no_pool)
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[:2] == lines[2:]  # the same decoder and engine


def test_summarize_prints_table(bench_run, tmp_path, capsys):
    summary_path = tmp_path / "summary.csv"
    code = main(["summarize", str(bench_run / "results.csv"),
                 "--out", str(summary_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "npe_mds" in out and "rmse_median" in out
    assert summary_path.exists()


def test_adapt_subcommand_writes_result_json(bench_run, tmp_path, capsys):
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    model = bench_run / manifest["artifacts"]["decoder"]

    rng = derive_rng(70, "obs")
    data = rng.standard_normal((12, 2))
    data[:3] = 5.0
    data_path = tmp_path / "observed.csv"
    np.savetxt(data_path, data, delimiter=",")

    out_path = tmp_path / "result.json"
    code = main(["adapt", "--model", str(model), "--data", str(data_path),
                 "--out", str(out_path)])
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    s0 = np.array(payload["s_initial"])
    assert s0.shape == (2,)
    assert np.allclose(s0, data.mean(axis=0), atol=1e-12)
    assert isinstance(payload["detected"], bool)
    assert payload["objective_final"] <= payload["objective_initial"]


def test_adapt_reads_npy_and_npz(bench_run, tmp_path, capsys):
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    model = bench_run / manifest["artifacts"]["decoder"]
    data = derive_rng(70, "npy").standard_normal((12, 2))

    npy = tmp_path / "obs.npy"
    np.save(npy, data)
    assert main(["adapt", "--model", str(model), "--data", str(npy)]) == EXIT_OK
    npy_out = capsys.readouterr().out

    npz = tmp_path / "obs.npz"
    np.savez(npz, data=data)
    assert main(["adapt", "--model", str(model), "--data", str(npz)]) == EXIT_OK
    npz_out = capsys.readouterr().out
    assert npz_out == npy_out  # same rows whatever the container
    payload = json.loads(npz_out)
    # plain JSON floats round-trip: the printed s_star is adapt's, bit for bit
    dec, _ = decoder_load(model)
    assert np.array_equal(np.array(payload["s_star"]), adapt(dec, data).s_star)


def test_adapt_serves_a_version_2_model_file_with_its_holdout(bench_run, tmp_path, capsys):
    # models saved before ARTIFACT_VERSION 3 carry their calibration holdout
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    model = bench_run / manifest["artifacts"]["decoder"]
    saved = json.loads(model.read_text(encoding="utf-8"))
    rng = derive_rng(70, "holdout")
    saved["holdout"] = {"summaries": hex_encoded(rng.standard_normal((13, 2))),
                        "embeddings": hex_encoded(rng.standard_normal((13, 16)))}
    old = tmp_path / "old-decoder.json"
    old.write_text(json.dumps(saved), encoding="utf-8")
    assert decoder_hash(decoder_load(old)[0]) == decoder_hash(decoder_load(model)[0])
    data = tmp_path / "obs.npy"
    np.save(data, derive_rng(70, "old-model").standard_normal((12, 2)) + 3.0)
    outputs = []
    for path in (model, old):  # ungated, so that both queries run the optimizer
        assert main(["adapt", "--model", str(path), "--data", str(data),
                     "--no-gate"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["iterations"] > 0


def test_a_failed_adapt_out_write_keeps_the_old_file(bench_run, tmp_path):
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    model = bench_run / manifest["artifacts"]["decoder"]
    data = tmp_path / "obs.npy"
    np.save(data, derive_rng(70, "out").standard_normal((12, 2)))
    out = tmp_path / "adapt.json"
    out.write_bytes(b"old\n")
    with pytest.MonkeyPatch.context() as mp:
        fill_the_disk(mp, "adapt.json")
        with pytest.raises(OSError):
            main(["adapt", "--model", str(model), "--data", str(data), "--out", str(out)])
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adapt.json", "obs.npy"]
    assert main(["adapt", "--model", str(model), "--data", str(data), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["s_star"]


def test_adapt_wrongly_shaped_data_exits_2(bench_run, tmp_path, capsys):
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    model = bench_run / manifest["artifacts"]["decoder"]
    rng = derive_rng(70, "shape")
    for shape in [(11, 2), (12, 3), (24,)]:  # wrong rows, wrong width, 1-D
        path = tmp_path / "obs.npy"
        np.save(path, rng.standard_normal(shape))
        assert main(["adapt", "--model", str(model), "--data", str(path)]) == EXIT_CONFIG
        assert "observations must have shape" in capsys.readouterr().err


def test_adapt_on_an_empty_npz_exits_2(bench_run, tmp_path, capsys):
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    model = bench_run / manifest["artifacts"]["decoder"]
    path = tmp_path / "empty.npz"
    np.savez(path)
    assert main(["adapt", "--model", str(model), "--data", str(path)]) == EXIT_CONFIG
    assert f"{path} holds no arrays" in capsys.readouterr().err


def test_adapt_on_a_non_finite_model_exits_3(bench_run, tmp_path, capsys):
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    saved = json.loads((bench_run / manifest["artifacts"]["decoder"]).read_text())
    saved["threshold"]["hex"][0] = "nan"  # would make every statistic "not flagged"
    saved["regressor"]["biases"][0]["hex"][0] = "inf"
    model = tmp_path / "decoder.json"
    model.write_text(json.dumps(saved), encoding="utf-8")
    path = tmp_path / "obs.npy"
    np.save(path, derive_rng(70, "shifted").standard_normal((12, 2)) + 50.0)
    assert main(["adapt", "--model", str(model), "--data", str(path)]) == EXIT_NUMERICAL
    assert "non-finite" in capsys.readouterr().err


def test_adapt_on_a_misshapen_model_exits_2(bench_run, tmp_path, capsys):
    # one bias and the phases cut to one value: broadcasting would hide both
    key = config_hash(config_from_dict(dict(TINY)))[:16]
    manifest = json.loads((bench_run / f"manifest-{key}.json").read_text())
    saved = json.loads((bench_run / manifest["artifacts"]["decoder"]).read_text())
    for arr in (saved["regressor"]["biases"][0], saved["feature_map"]["phases"]):
        arr["shape"], arr["hex"] = [1], arr["hex"][:1]
    model = tmp_path / "decoder.json"
    model.write_text(json.dumps(saved), encoding="utf-8")
    path = tmp_path / "obs.npy"
    np.save(path, derive_rng(70, "misshapen").standard_normal((12, 2)))
    assert main(["adapt", "--model", str(model), "--data", str(path)]) == EXIT_CONFIG
    assert "has shape (1,)" in capsys.readouterr().err


MODEL_FILE_EDITS = {
    # a task of 3-wide rows and summaries over 2-wide models: adapt would
    # fail only at its first query
    "task_width": lambda saved: saved["task"]["params"].update(d=3),
    # an array as a plain JSON list rather than its saved {shape, hex} form
    "plain_list": lambda saved: saved.update(summary_mean=[0.5, -1.0]),
}


@pytest.mark.parametrize("edit", sorted(MODEL_FILE_EDITS))
def test_adapt_on_a_model_file_that_disagrees_with_itself_exits_2(tmp_path, capsys, edit):
    dec, _ = fixed_decoder()
    model = tmp_path / "decoder.json"
    decoder_save(dec, model)
    saved = json.loads(model.read_text(encoding="utf-8"))
    MODEL_FILE_EDITS[edit](saved)
    model.write_text(json.dumps(saved), encoding="utf-8")
    with pytest.raises(ValueError):
        decoder_load(model)
    path = tmp_path / "obs.npy"
    np.save(path, derive_rng(70, "disagreeing").standard_normal((20, 2)))
    assert main(["adapt", "--model", str(model), "--data", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["threshold", "task"])
def test_adapt_on_a_model_file_missing_a_key_exits_2(tmp_path, capsys, key):
    dec, _ = fixed_decoder()
    model = tmp_path / "decoder.json"
    decoder_save(dec, model)
    saved = json.loads(model.read_text(encoding="utf-8"))
    del saved[key]
    model.write_text(json.dumps(saved), encoding="utf-8")
    path = tmp_path / "obs.npy"
    np.save(path, derive_rng(70, "missing").standard_normal((20, 2)))
    assert main(["adapt", "--model", str(model), "--data", str(path)]) == EXIT_CONFIG
    assert f"has no key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["simulate", "train"])
@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--no-gate"], ["--optimizer", "lbfgs"]])
def test_stage_commands_reject_evaluation_flags(config_path, tmp_path, capsys, cmd, flag):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--config", str(config_path), "--out-dir", str(tmp_path), *flag])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_calibrate_is_not_a_subcommand(config_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--config", str(config_path), "--out-dir", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err


def test_bench_is_not_a_subcommand(config_path, tmp_path, capsys):
    # evaluate is the one name for the full pipeline
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(config_path), "--out-dir", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_evaluate_takes_jobs_and_no_gate(bench_run, config_path, tmp_path, capsys):
    # a copy of the cached models serves it; --no-gate changes the config
    # hash, so this evaluates the grid once more, in two worker processes
    out = tmp_path / "run"
    shutil.copytree(bench_run, out)
    code = main(["evaluate", "--config", str(config_path), "--out-dir", str(out),
                 "--jobs", "2", "--no-gate"])
    assert code == EXIT_OK
    key = config_hash(config_from_dict({**TINY, "gate": False}))[:16]
    assert f"results-{key}.csv" in capsys.readouterr().out


def test_verify_subcommand(bench_run, config_path, tmp_path, capsys):
    fdir = tmp_path / "fixtures" / "tiny"
    fdir.mkdir(parents=True)
    shutil.copyfile(config_path, fdir / "config.json")
    (fdir / "tolerances.json").write_text(
        json.dumps({"columns": {}}), encoding="utf-8")
    shutil.copyfile(bench_run / "results.csv", fdir / "expected.csv")

    code = main(["verify", "--fixtures", str(tmp_path / "fixtures"),
                 "--out-dir", str(bench_run)])
    assert code == EXIT_OK
    assert "PASS tiny" in capsys.readouterr().out

    # a tampered expectation must fail with exit code 1
    text = (fdir / "expected.csv").read_text(encoding="utf-8")
    (fdir / "expected.csv").write_text(text.replace("npe_mds", "npe_mdsX"),
                                       encoding="utf-8")
    code = main(["verify", "--fixtures", str(tmp_path / "fixtures"),
                 "--out-dir", str(bench_run)])
    assert code == 1
    assert "FAIL tiny" in capsys.readouterr().out


def test_verify_empty_dir_is_config_error(tmp_path, capsys):
    assert main(["verify", "--fixtures", str(tmp_path)]) == EXIT_CONFIG


def test_unknown_config_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"task": "gaussian", "bogus": 1}), encoding="utf-8")
    assert main(["evaluate", "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["simulate", "evaluate"])
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, cmd):
    # a fractional count is a config error, not a crash inside a stage
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**TINY, "n_obs": 10.5}), encoding="utf-8")
    assert main([cmd, "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "n_obs must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("task, kind", [("gaussian", "offprior_trajectories"),
                                        ("sir", "row_outliers")])
def test_contamination_kind_exits_2_before_any_stage(tmp_path, capsys, task, kind):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"task": task, "n_train": 20,
                             "contamination": [{"kind": kind, "eps": 0.2}]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(p), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "unknown contamination keys: kind" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("patch, message", [
    ({"task": "gaussian", "n_predictive": 1}, "n_predictive must be >= 2"),
    ({"task": "oup", "d": 7}, "d does not apply to task 'oup'"),
    ({"task": "sir", "obs_dim": 9}, "obs_dim does not apply to task 'sir'"),
    ({"task": "gaussian", "n_obs": 1}, "n_obs must be >= 2"),
], ids=["n_predictive", "oup-d", "sir-obs_dim", "n_obs"])
def test_config_that_would_fail_or_retrain_later_exits_2_first(tmp_path, capsys, patch,
                                                                message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n_train": 20, **patch}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(p), "--out-dir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_malformed_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["evaluate", "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["evaluate", "--config", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_seed_override_changes_artifacts(config_path, tmp_path, capsys):
    code = main(["simulate", "--config", str(config_path),
                 "--out-dir", str(tmp_path), "--seed", "99"])
    assert code == EXIT_OK
    cfg = config_from_dict({**TINY, "master_seed": 99})
    from mdsum.harness import _pool_key
    assert (tmp_path / f"pool-{_pool_key(cfg)}.npz").exists()
