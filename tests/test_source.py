"""Checks over the package source itself."""

import ast
from pathlib import Path

import sociolens

SOURCES = sorted(Path(sociolens.__file__).parent.glob("*.py"))


def test_no_check_relies_on_assert():
    # `python -O` strips assert statements, so a check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
