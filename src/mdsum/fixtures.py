"""Golden fixtures: committed expected outputs for tiny pipeline runs.

A fixture directory holds config.json, expected.csv and tolerances.json.
Verification regenerates the results CSV from the pinned config and
compares column-wise within per-column tolerances (relative bounds rather
than bit equality, so the committed CSVs stay portable across platforms;
within one platform the pipeline itself is still bit-reproducible).
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .harness import ExperimentConfig, config_from_dict, read_results_strings, run_pipeline

_STRING_COLS = ("task", "method", "eps", "delta", "seed", "detected")
MAX_REPORTED = 10


@dataclass
class GoldenFixture:
    name: str
    path: Path
    config: ExperimentConfig
    expected_csv: Path
    tolerances: dict  # column -> {"rel": float, "abs": float}


@dataclass
class FixtureReport:
    name: str
    passed: bool
    divergences: list = field(default_factory=list)  # first MAX_REPORTED only


def load_fixture(path) -> GoldenFixture:
    p = Path(path)
    config_path = p / "config.json"
    expected = p / "expected.csv"
    tol_path = p / "tolerances.json"
    for f in (config_path, expected, tol_path):
        if not f.exists():
            raise FileNotFoundError(f"fixture {p.name!r} is missing {f.name}")
    with open(config_path, encoding="utf-8") as fh:
        cfg = config_from_dict(json.load(fh))
    with open(tol_path, encoding="utf-8") as fh:
        tol = json.load(fh)
    if not isinstance(tol, dict) or "columns" not in tol:
        raise ValueError(f"fixture {p.name!r}: tolerances.json needs a 'columns' mapping")
    return GoldenFixture(name=p.name, path=p, config=cfg, expected_csv=expected,
                         tolerances=tol["columns"])


def discover_fixtures(root) -> list:
    """All fixture directories (config.json present) under root, sorted by name."""
    rootp = Path(root)
    if not rootp.is_dir():
        return []
    out = []
    for child in sorted(rootp.iterdir()):
        if child.is_dir() and (child / "config.json").exists():
            out.append(load_fixture(child))
    return out


def verify_fixture(fixture: GoldenFixture, scratch_dir=None) -> FixtureReport:
    """Regenerate the fixture's results and diff against the committed CSV."""
    if scratch_dir is None:
        with tempfile.TemporaryDirectory(prefix="mdsum-fixture-") as tmp:
            return _verify_in(fixture, tmp)
    return _verify_in(fixture, scratch_dir)


def _verify_in(fixture: GoldenFixture, out_dir) -> FixtureReport:
    manifest = run_pipeline(fixture.config, out_dir, jobs=1)
    got_path = Path(out_dir) / manifest["artifacts"]["results"]
    names, got = read_results_strings(got_path)
    _, expected = read_results_strings(fixture.expected_csv)

    divergences = []

    def report(msg):
        if len(divergences) < MAX_REPORTED:
            divergences.append(msg)

    if len(got) != len(expected):
        report(f"row count: got {len(got)} expected {len(expected)}")
        return FixtureReport(name=fixture.name, passed=False, divergences=divergences)

    n_bad = 0
    for i, (grow, erow) in enumerate(zip(got, expected)):
        for col, gval, eval_ in zip(names, grow, erow):
            tol = fixture.tolerances.get(col, {})
            if col in _STRING_COLS or not tol:
                ok = gval == eval_
                if not ok:
                    n_bad += 1
                    report(f"row {i} col {col}: got {gval!r} expected {eval_!r} (exact)")
                continue
            if (gval == "") != (eval_ == ""):
                n_bad += 1
                report(f"row {i} col {col}: got {gval!r} expected {eval_!r} (presence)")
                continue
            if gval == "":
                continue
            g, e = float(gval), float(eval_)
            bound = tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(e)
            if abs(g - e) > bound:
                n_bad += 1
                report(f"row {i} col {col}: got {g} expected {e} (tol {bound:g})")
    return FixtureReport(name=fixture.name, passed=n_bad == 0, divergences=divergences)
