"""The experiment config holds only what its callers set.

Every ExperimentConfig field must be set by a caller outside the tests:
a key of a committed config (configs/*.json, fixtures/*/config.json), a
key of perfbench's CONFIGS, or a `cfg.<field> = ...` assignment in cli.py
(the --seed and --no-gate overrides). A value that no caller sets belongs
in the code as a constant.
"""

import ast
import dataclasses
import json
from pathlib import Path

from mdsum.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def _committed_keys():
    paths = sorted((ROOT / "configs").glob("*.json")) + sorted(ROOT.glob("fixtures/*/config.json"))
    assert paths
    return {key for p in paths for key in json.loads(p.read_text(encoding="utf-8"))}


def _perfbench_keys():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "CONFIGS"):
            return {key for doc in ast.literal_eval(node.value).values() for key in doc}
    raise AssertionError("perfbench/workloads.py defines no CONFIGS literal")


def _cli_assigned_fields():
    tree = ast.parse((ROOT / "src" / "mdsum" / "cli.py").read_text(encoding="utf-8"))
    return {target.attr for node in ast.walk(tree) if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "cfg"}


def test_cli_overrides_are_found():
    assert _cli_assigned_fields() == {"master_seed", "gate"}


def test_every_config_field_is_set_by_a_caller_outside_the_tests():
    set_somewhere = _committed_keys() | _perfbench_keys() | _cli_assigned_fields()
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unset = sorted(fields - set_somewhere)
    assert not unset, f"config fields that no caller sets: {unset}"
