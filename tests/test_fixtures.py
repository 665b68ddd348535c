import json
import shutil
import statistics
from pathlib import Path

import pytest

from mdsum.fixtures import (
    MAX_REPORTED,
    discover_fixtures,
    load_fixture,
    verify_fixture,
)
from mdsum.harness import config_from_dict, config_hash, read_results_csv, run_pipeline

REPO_FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

FIXTURE_CONFIG = {
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
    "contamination": [{"eps": 0.0}],
    "master_seed": 6,
}

TOLERANCES = {"columns": {
    "rmse": {"rel": 0.05, "abs": 1e-9},
    "coverage": {"abs": 0.15},
    "posterior_mmd": {"rel": 0.1, "abs": 1e-6},
    "predictive_mmd": {"rel": 0.1, "abs": 1e-6},
    "summary_oracle_dist": {"rel": 0.05, "abs": 1e-9},
}}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A real golden fixture built by running the pipeline once."""
    root = tmp_path_factory.mktemp("fixtures")
    fdir = root / "tiny-gaussian"
    fdir.mkdir()
    (fdir / "config.json").write_text(json.dumps(FIXTURE_CONFIG), encoding="utf-8")
    (fdir / "tolerances.json").write_text(json.dumps(TOLERANCES), encoding="utf-8")

    cfg = config_from_dict(dict(FIXTURE_CONFIG))
    scratch = root / "scratch"
    manifest = run_pipeline(cfg, scratch, jobs=1)
    shutil.copyfile(scratch / manifest["artifacts"]["results"], fdir / "expected.csv")
    return root, fdir


def test_load_fixture_fields(fixture_dir):
    _, fdir = fixture_dir
    fx = load_fixture(fdir)
    assert fx.name == "tiny-gaussian"
    assert fx.config.n_obs == 12
    assert fx.tolerances["rmse"]["rel"] == 0.05
    assert fx.expected_csv.exists()


def test_load_fixture_missing_file(tmp_path):
    (tmp_path / "config.json").write_text("{}", encoding="utf-8")
    with pytest.raises(FileNotFoundError):
        load_fixture(tmp_path)


def test_load_fixture_rejects_bad_tolerances(fixture_dir, tmp_path):
    _, fdir = fixture_dir
    broken = tmp_path / "broken"
    shutil.copytree(fdir, broken)
    (broken / "tolerances.json").write_text(json.dumps({"rmse": {}}), encoding="utf-8")
    with pytest.raises(ValueError, match="columns"):
        load_fixture(broken)


def test_discover_fixtures(fixture_dir, tmp_path):
    root, fdir = fixture_dir
    found = discover_fixtures(root)
    assert [f.name for f in found] == ["tiny-gaussian"]
    assert discover_fixtures(tmp_path) == []
    assert discover_fixtures(tmp_path / "absent") == []


def test_verify_fixture_passes_on_faithful_regeneration(fixture_dir, tmp_path):
    _, fdir = fixture_dir
    report = verify_fixture(load_fixture(fdir), scratch_dir=tmp_path)
    assert report.passed, report.divergences
    assert report.divergences == []


def test_verify_fixture_reuses_scratch_cache(fixture_dir, tmp_path):
    _, fdir = fixture_dir
    fx = load_fixture(fdir)
    verify_fixture(fx, scratch_dir=tmp_path)
    key = config_hash(fx.config)[:16]
    results = tmp_path / f"results-{key}.csv"
    mtime = results.stat().st_mtime_ns
    report = verify_fixture(fx, scratch_dir=tmp_path)
    assert report.passed
    assert results.stat().st_mtime_ns == mtime  # cached, not regenerated


def test_verify_fixture_detects_value_drift(fixture_dir, tmp_path):
    _, fdir = fixture_dir
    tampered = tmp_path / "tampered"
    shutil.copytree(fdir, tampered)
    lines = (tampered / "expected.csv").read_text(encoding="utf-8").splitlines()
    parts = lines[1].split(",")
    parts[5] = repr(float(parts[5]) * 10.0)  # blow up the rmse column
    lines[1] = ",".join(parts)
    (tampered / "expected.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = verify_fixture(load_fixture(tampered), scratch_dir=tmp_path / "scratch")
    assert not report.passed
    assert any("rmse" in d for d in report.divergences)


def test_verify_fixture_detects_exact_column_drift(fixture_dir, tmp_path):
    _, fdir = fixture_dir
    tampered = tmp_path / "tampered"
    shutil.copytree(fdir, tampered)
    lines = (tampered / "expected.csv").read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace("false", "true").replace("npe_plain", "npe_mds", 1)
    (tampered / "expected.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = verify_fixture(load_fixture(tampered), scratch_dir=tmp_path / "scratch")
    assert not report.passed
    assert any("exact" in d for d in report.divergences)


def test_verify_fixture_row_count_mismatch_short_circuits(fixture_dir, tmp_path):
    _, fdir = fixture_dir
    tampered = tmp_path / "tampered"
    shutil.copytree(fdir, tampered)
    lines = (tampered / "expected.csv").read_text(encoding="utf-8").splitlines()
    (tampered / "expected.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    report = verify_fixture(load_fixture(tampered), scratch_dir=tmp_path / "scratch")
    assert not report.passed
    assert len(report.divergences) == 1
    assert "row count" in report.divergences[0]


def test_verify_fixture_caps_reported_divergences(fixture_dir, tmp_path):
    _, fdir = fixture_dir
    tampered = tmp_path / "tampered"
    shutil.copytree(fdir, tampered)
    text = (tampered / "expected.csv").read_text(encoding="utf-8")
    (tampered / "expected.csv").write_text(
        text.replace("gaussian", "gauss1an"), encoding="utf-8")
    report = verify_fixture(load_fixture(tampered), scratch_dir=tmp_path / "scratch")
    assert not report.passed
    assert len(report.divergences) <= MAX_REPORTED


def test_committed_fixtures_verify(tmp_path):
    # the fixtures shipped with the repository must regenerate cleanly
    fixtures = discover_fixtures(REPO_FIXTURES)
    assert [fx.name for fx in fixtures] == ["tiny-gaussian"]
    for fx in fixtures:
        report = verify_fixture(fx, scratch_dir=tmp_path / fx.name)
        assert report.passed, report.divergences


def test_committed_tiny_gaussian_shows_the_robustness_direction():
    rows = read_results_csv(REPO_FIXTURES / "tiny-gaussian" / "expected.csv")

    def cell_median(method):
        return statistics.median(r["rmse"] for r in rows
                                 if r["method"] == method and r["eps"] == 0.2)

    assert cell_median("npe_mds") < cell_median("npe_plain")
