"""Checks over the package source itself."""

import ast
from pathlib import Path

import sociolens

SOURCES = sorted(Path(sociolens.__file__).parent.glob("*.py"))
# the benchmark harness looks package names up from outside: as attributes, or by string
PERFBENCH = sorted((Path(sociolens.__file__).parents[2] / "perfbench").rglob("*.py"))


def test_no_check_relies_on_assert():
    # `python -O` strips assert statements, so a check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _names(node: ast.AST) -> str | None:
    """The name a node refers to: a variable, an attribute, an import, or an identifier string."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def test_every_public_name_is_used_outside_tests():
    # a public def or class that only tests call belongs in tests/helpers.py
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES + PERFBENCH}
    uses = [(path, getattr(node, "lineno", 0), name)
            for path, tree in trees.items() for node in ast.walk(tree) if (name := _names(node))]
    unused = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                    for where, line, name in uses)
    ]
    assert PERFBENCH and not unused, unused
