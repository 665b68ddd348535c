"""The library carries no API that only tests use.

Every public top-level function or class in src/mdsum must be referenced
from src/mdsum outside its own definition or from perfbench/ (which also
patches functions by their names as strings); being exported in
mdsum.__all__ does not count. A function that only tests call belongs in
tests/helpers.py.

Every defaulted parameter of a top-level function, public or private,
and every defaulted dataclass field, must be set by code in src/mdsum or
perfbench/: by keyword or position in a call, or by an attribute
assignment. A value that only tests set belongs in the code as a constant
(tests monkeypatch it). ExperimentConfig is checked by
test_config_surface.py.

The settable values, those defaulted parameters and fields outside cli.py
with ExperimentConfig's fields included, stay under a ceiling: a new one
raises it in the same change.

No module of src/mdsum imports a name it never refers to.
"""

import ast
from pathlib import Path


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
    # the package's re-exports in __init__.py are not callers
    callers = [tree for path, tree in modules.items() if path.name != "__init__.py"]
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _references(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in outside):
                continue
            if not any(node.name in _references(other, skip=node) for other in callers):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public definitions only tests can reach: {unused}"


# defaulted values that no code outside the tests sets, kept on purpose
UNSET_ALLOWED = {
    "cli.main.argv": "the entry point: the console script passes none, tests pass argv",
}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _settings(trees):
    """(callee, keyword) and (callee, position) pairs of every call, and the
    names of every attribute assigned to."""
    keywords, positions, attributes = set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                keywords |= {(name, kw.arg) for kw in node.keywords}
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    positions.add((name, i))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                attributes |= {t.attr for t in targets if isinstance(t, ast.Attribute)}
    return keywords, positions, attributes


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _defaulted(module, tree):
    """(qualified name, owner, name, position or None, is_field) of every
    defaulted top-level function parameter and dataclass field."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args
            for i in range(len(args) - len(node.args.defaults), len(args)):
                yield f"{module}.{node.name}.{args[i].arg}", node.name, args[i].arg, i, False
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{module}.{node.name}.{arg.arg}", node.name, arg.arg, None, False
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                      and "ClassVar" not in ast.unparse(f.annotation)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield f"{module}.{node.name}.{f.target.id}", node.name, f.target.id, i, True


def test_every_defaulted_value_is_set_outside_the_tests():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    keywords, positions, attributes = _settings(
        ast.parse(p.read_text(encoding="utf-8")) for p in paths)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, owner, name, pos, is_field in _defaulted(path.stem, tree):
            if (owner == "ExperimentConfig" or (owner, name) in keywords
                    or (owner, pos) in positions or (is_field and name in attributes)):
                continue
            unset.append(qualified)
    assert sorted(unset) == sorted(UNSET_ALLOWED), (
        f"defaulted values that only tests set: {sorted(set(unset) - set(UNSET_ALLOWED))}; "
        f"allowed but now set or gone: {sorted(set(UNSET_ALLOWED) - set(unset))}")


SETTABLE_CEILING = 41


def test_settable_values_stay_under_the_ceiling():
    settable = sorted(
        qualified for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
        for qualified, *_ in _defaulted(path.stem, ast.parse(path.read_text(encoding="utf-8"))))
    assert len(settable) <= SETTABLE_CEILING, (
        f"{len(settable)} settable values, ceiling {SETTABLE_CEILING}: {settable}")


# imported names a module keeps without using them, each with its reason
UNUSED_IMPORT_ALLOWED = {
    "metrics.make_task": "perfbench/tracing.py patches make_task on mdsum.metrics",
    "adaptation.make_task": "perfbench/tracing.py patches make_task on mdsum.adaptation",
    "harness.sample_mmd": "perfbench/tracing.py patches sample_mmd on mdsum.harness",
}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.stem}.{bound}")
    assert sorted(unused) == sorted(UNUSED_IMPORT_ALLOWED), (
        f"unused imports: {sorted(set(unused) - set(UNUSED_IMPORT_ALLOWED))}; "
        f"allowed but now used or gone: {sorted(set(UNUSED_IMPORT_ALLOWED) - set(unused))}")
