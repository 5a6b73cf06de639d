"""Checks on the package's source text."""

import ast
from pathlib import Path

import framecycles

PACKAGE = Path(framecycles.__file__).parent


def test_no_assert_statements():
    """Invariants raise real exceptions: ``python -O`` strips ``assert``."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
