"""Every `mdsum <command>` in README.md and docs/*.md names a subcommand
that the CLI parser accepts, so the documented recipes stay runnable."""

import argparse
import re
from pathlib import Path

import pytest

from mdsum.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
SHELL_CALL = re.compile(r"^\s*mdsum\s+(\S+)", re.M)
INLINE_CALL = re.compile(r"`mdsum\s+(\S+?)[\s`]")


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def _documented_commands(text):
    found = set(INLINE_CALL.findall(text))
    for block in FENCE.findall(text):
        found.update(SHELL_CALL.findall(block))
    return found


def test_the_scan_finds_commands():
    assert _documented_commands("```sh\n  mdsum run --x\n```\nsee `mdsum verify`\n") == {
        "run", "verify"}
    assert {"evaluate", "summarize", "verify"} <= _documented_commands(
        (ROOT / "README.md").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_documented_commands_are_subcommands(path):
    unknown = sorted(_documented_commands(path.read_text(encoding="utf-8")) - _subcommands())
    assert not unknown, f"{path.name} documents unknown subcommands: {unknown}"
