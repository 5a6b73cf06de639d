"""Checks on the package's source text."""

import ast
import sys
from pathlib import Path

import pytest

from oracles import write_load_case
import framecycles
from framecycles import cli, force
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


def test_g_gets_no_lu_solve_or_slogdet():
    """G is factored once per use, by Cholesky, and solved with that factor:
    neither ``numpy.linalg.solve`` nor ``slogdet`` (both an LU of G) runs,
    and no eigensolver that takes the whole of G does either (PL comes from
    Lanczos runs, whose tridiagonal alone goes to ``eigh``)."""
    banned = {"solve", "slogdet", "eigvalsh", "eigvals", "eig"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith("linalg"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}" for name in names if name in banned
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


def _imported(node: ast.AST) -> list[str]:
    """The modules that an import statement imports, ``from framecycles
    import force`` as ``framecycles.force``; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module == "framecycles":
            return [f"framecycles.{alias.name}" for alias in node.names]
        return [node.module]
    return []


def _package_imports(path: Path) -> set[str]:
    """The ``framecycles`` modules that the module at *path* imports."""
    tree = ast.parse(path.read_text(), str(path))
    modules = [m for node in ast.walk(tree) for m in _imported(node)]
    return {m.split(".")[1] for m in modules if m.startswith("framecycles.")}


def test_force_metrics_and_render_stay_separate_layers():
    """The force method, the conditioning metrics and the renderings import
    none of each other; only the CLI brings all three together."""
    layers = {"force", "metrics", "render"}
    imports = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports[name] & layers for name in layers} == {name: set() for name in layers}
    assert [name for name, used in imports.items() if layers <= used] == ["cli"]


def _module_level_imports(path: Path) -> set[str]:
    """The top-level packages, and the ``framecycles`` modules by their short
    names, that the module at *path* imports while it is imported: function
    bodies are left out, class bodies and top-level blocks are not."""
    found = set()
    stack = list(ast.parse(path.read_text(), str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for module in _imported(node):
            top, _, rest = module.partition(".")
            found.add(rest.partition(".")[0] if top == "framecycles" and rest else top)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_only_the_numeric_layers_import_numpy():
    """The Cholesky factor, the force method and the metrics alone import
    numpy, in any scope; and ``import framecycles.cli`` loads none, since no
    other module imports those three at module level, directly or through
    another module: the CLI imports them inside the commands that compute."""
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if any(module.partition(".")[0] == "numpy" for module in _imported(node))
    }
    assert importers == {"cholesky", "force", "metrics"}
    imports = {path.stem: _module_level_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    numeric = {"numpy"}
    while grown := {name for name, used in imports.items() if used & numeric} - numeric:
        numeric |= grown
    assert numeric - {"numpy"} == importers


@pytest.mark.parametrize("name", ["build_b1", "assemble_g", "unassembled_flexibility"])
def test_cli_lends_the_tracer_forces_functions(name):
    """``bench/tracing.py`` patches these three names on ``cli``; the module
    resolves them to ``force``'s functions on first use."""
    assert getattr(cli, name) is getattr(force, name)


def test_cli_has_no_other_lent_names():
    with pytest.raises(AttributeError, match="has no attribute 'solve_force_method'"):
        getattr(cli, "solve_force_method")
    assert not hasattr(cli, "np")


def _names_used(tree: ast.AST, strings: bool = False, skip: ast.AST | None = None) -> set[str]:
    """Every name that *tree* reads or imports, outside the subtree *skip*,
    and with *strings* every string constant too (``bench/tracing.py``
    patches functions by name)."""
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
            found.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public_definitions(stmt: ast.stmt) -> list[tuple[str, ast.AST]]:
    """The public names that a top-level statement defines, with the node
    that defines each: a class's public methods and properties count, its
    fields do not."""
    if isinstance(stmt, ast.ClassDef):
        found = [(stmt.name, stmt)]
        found += [(f.name, f) for f in stmt.body if isinstance(f, ast.FunctionDef)]
    elif isinstance(stmt, ast.FunctionDef):
        found = [(stmt.name, stmt)]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        found = [(t.id, stmt) for t in targets if isinstance(t, ast.Name)]
    else:
        found = []
    return [(name, node) for name, node in found if not name.startswith("_")]


def test_every_public_name_has_a_caller_outside_tests():
    """A public name that only the tests use is test code shipped in the package.

    Each one, and each public method or property of a class, must be used
    in the package beyond its own definition or named by the benchmark.  A
    re-export from ``__init__`` is not a use: being in ``framecycles.__all__``
    does not make a name needed.  Uses are found by name, so a method counts
    as used where any attribute of that name is read.  Dataclass fields are
    data, not callers' API, and stay out of the rule.
    """
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    bench = [ast.parse(path.read_text(), str(path)) for path in BENCH.glob("*.py")]
    allowed = set().union(*(_names_used(tree, strings=True) for tree in bench))
    unused = []
    for name, tree in modules.items():
        others = (
            _names_used(other)
            for other_name, other in modules.items()
            if other is not tree and other_name != "__init__.py"
        )
        elsewhere = allowed.union(*others)
        for stmt in tree.body:
            for public, node in _public_definitions(stmt):
                if public not in elsewhere and public not in _names_used(tree, skip=node):
                    unused.append(f"{name}: {public}")
    assert unused == []


def test_main_alone_ends_a_command():
    """A CLI command prints its output and raises on a rejection: no
    ``_cmd_*`` function returns a value, and ``main`` is the one function of
    ``cli.py`` with an ``error:`` string, so it alone maps a command's end to
    the exit code."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    commands = [f for f in functions if f.name.startswith("_cmd_")]
    assert sorted(f.name for f in commands) == sorted(f.__name__ for f in cli._COMMANDS.values())
    returns = [
        f"{f.name}:{node.lineno}"
        for f in commands
        for node in ast.walk(f)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    assert returns == []
    printing_errors = {
        f.name
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "error:" in node.value
    }
    assert printing_errors == {"main"}
