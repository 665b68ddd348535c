"""The library carries no API that only tests use.

Every public top-level function or class in src/mdsum must be referenced
from src/mdsum outside its own definition, from perfbench/ (which also
patches functions by their names as strings), or from mdsum.__all__. A
function that only tests call belongs in tests/helpers.py.
"""

import ast
from pathlib import Path

import mdsum

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mdsum"


def _references(tree, skip=None, strings=False):
    """Identifiers a syntax tree refers to: names, attributes and imported
    names, plus string constants when strings is set; the subtree of skip
    is left out."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    outside = set(mdsum.__all__)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _references(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in outside):
                continue
            if not any(node.name in _references(other, skip=node)
                       for other in modules.values()):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public definitions only tests can reach: {unused}"
