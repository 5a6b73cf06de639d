"""Checks on the package's source text."""

import ast
import sys
from pathlib import Path

from oracles import write_load_case
import framecycles
from framecycles.cli import main

PACKAGE = Path(framecycles.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def test_bench_tracer_finds_every_name_it_patches(tmp_path, monkeypatch):
    """``bench/tracing.py`` wraps library functions by name at their call
    sites; a rename there would break ``--trace 1`` without failing a test."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    loads = tmp_path / "loads.json"
    write_load_case([(6, 1.0, 0.0, 0.0)], loads)
    tracer = tracing.Tracer()
    tracer.install()
    patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    try:
        assert main(["condition", "grid:2x2"]) == 0
        assert main(["force", "grid:2x2", "--loads", str(loads)]) == 0
        assert main(["render", "grid:2x2", "--block", "--sparsity", str(tmp_path / "g.pbm")]) == 0
    finally:
        tracer.uninstall()
    assert {"metrics.condition", "force.g", "force.solve", "basis.cd"} <= set(tracer.total_s)
    still_wrapped = [
        f"{owner.__name__}.{attr}"
        for owner, attr in patched
        if hasattr(getattr(owner, attr), "__wrapped__")
    ]
    assert still_wrapped == []


def test_render_builds_no_force_layer(tmp_path, monkeypatch):
    """``render --block`` draws D's pattern, which is G's 3x3-block pattern,
    so it builds no Fm, B1 or G and writes the same bytes as plain ``render``."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    block, plain = tmp_path / "block.pbm", tmp_path / "plain.pbm"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["render", "grid:3x3:checker", "--block", "--sparsity", str(block)]) == 0
    finally:
        tracer.uninstall()
    assert "render.sparsity" in tracer.total_s
    assert {"force.fm", "force.b1", "force.g"} & set(tracer.total_s) == set()
    assert main(["render", "grid:3x3:checker", "--sparsity", str(plain)]) == 0
    assert block.read_bytes() == plain.read_bytes()


def _package_imports(path: Path) -> set[str]:
    """The ``framecycles`` modules that the module at *path* imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
            if node.module == "framecycles":
                modules = [f"framecycles.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {m.split(".")[1] for m in modules if m.startswith("framecycles.")}
    return found


def test_force_metrics_and_render_stay_separate_layers():
    """The force method, the conditioning metrics and the renderings import
    none of each other; only the CLI brings all three together."""
    layers = {"force", "metrics", "render"}
    imports = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports[name] & layers for name in layers} == {name: set() for name in layers}
    assert [name for name, used in imports.items() if layers <= used] == ["cli"]


def _names_used(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every name that *tree* reads or imports, and with *strings* every
    string constant too (``bench/tracing.py`` patches functions by name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _public_names(stmt: ast.stmt) -> list[str]:
    """The public names that a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller_outside_tests():
    """A public name that only the tests use is test code shipped in the package.

    Each one must be used in the package beyond its own definition, exported
    by ``framecycles.__all__`` or named by the benchmark.
    """
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    bench = [ast.parse(path.read_text(), str(path)) for path in BENCH.glob("*.py")]
    allowed = set(framecycles.__all__).union(*(_names_used(tree, strings=True) for tree in bench))
    unused = []
    for name, tree in modules.items():
        others = (_names_used(other) for other in modules.values() if other is not tree)
        elsewhere = allowed.union(*others)
        for stmt in tree.body:
            used = elsewhere.union(*(_names_used(other) for other in tree.body if other is not stmt))
            unused += [f"{name}: {public}" for public in _public_names(stmt) if public not in used]
    assert unused == []
