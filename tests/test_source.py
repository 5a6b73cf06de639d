"""Checks on the package's source text."""

import ast
import sys
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


def test_imports_only_stdlib_and_numpy():
    """The package depends on numpy alone; scipy and networkx serve the tests."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "framecycles"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert found == []
