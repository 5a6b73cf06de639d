"""Command-line interface behavior, exercised through main(argv)."""

import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from oracles import write_load_case
from framecycles import cli
from framecycles.cli import Analysis, load_or_generate, main
from framecycles.model import ModelError, build_graph


class TestLoadOrGenerate:
    def test_grid_spec(self):
        model = load_or_generate("grid:2x3:weak-beams")
        assert len(model.nodes) == 12
        assert model.ndim == 2

    def test_grid3d_spec(self):
        model = load_or_generate("grid3d:2x1x1")
        assert model.ndim == 3

    def test_bad_specs(self):
        for spec in ("grid:2", "grid:axb", "grid3d:2x2", "grid:2x2x2"):
            with pytest.raises(ModelError, match="generator spec"):
                load_or_generate(spec)

    def test_file_path(self, tmp_path):
        rc = main(
            [
                "generate",
                "--stories",
                "1",
                "--spans",
                "1",
                "-o",
                str(tmp_path / "f.json"),
            ]
        )
        assert rc == 0
        model = load_or_generate(str(tmp_path / "f.json"))
        assert len(model.members) == 3


class TestGenerate:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "frame.json"
        rc = main(
            ["generate", "--stories", "2", "--spans", "2", "--pattern", "checker", "-o", str(out)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1

    def test_3d_variant(self, tmp_path):
        out = tmp_path / "frame3d.json"
        rc = main(
            ["generate", "--stories", "1", "--spans", "1", "--spans-y", "1", "-o", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["dimensionality"] == 3

    @pytest.mark.parametrize("bay", ["nan", "inf"])
    def test_nonfinite_bay_is_rejected_before_writing(self, tmp_path, capsys, bay):
        out = tmp_path / "g.json"
        argv = ["generate", "--stories", "1", "--spans", "1", "--bay", bay, "-o", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite coordinate" in captured.err
        assert not out.exists()


class TestCycles:
    def test_lists_every_basis_cycle(self, capsys):
        assert main(["cycles", "grid:3x4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("b1 = 12\n")
        assert out.count("cycle ") == 12
        assert "members=[" in out

    def test_algorithm_selection(self, capsys):
        assert main(["cycles", "grid:2x2", "--algorithm", "5"]) == 0
        assert capsys.readouterr().out.count("cycle ") == 4


class TestForce:
    def test_prints_member_forces(self, tmp_path, capsys):
        loads = tmp_path / "loads.json"
        write_load_case([(6, 1.0, 0.0, 0.0)], loads)
        assert main(["force", "grid:2x2", "--loads", str(loads)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("member  N  V  M\n")
        assert "compatibility residual" in out
        assert len(out.strip().splitlines()) == 2 + 10  # header + 10 members + residual

    def test_load_on_unknown_node_is_reported(self, tmp_path, capsys):
        loads = tmp_path / "loads.json"
        write_load_case([(99, 1.0, 0.0, 0.0)], loads)
        assert main(["force", "grid:2x2", "--loads", str(loads)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: load on unknown node 99\n"
        assert captured.out == ""


class TestCondition:
    def test_report_fields(self, capsys):
        assert main(["condition", "grid:3x4", "--precision", "8"]) == 0
        out = capsys.readouterr().out
        assert "PL = 3.44644" in out
        assert "X(D) = 46" in out
        assert "good digits (p=8)" in out

    def test_rejects_3d(self, capsys):
        assert main(["condition", "grid3d:2x1x1"]) == 1
        assert "planar" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["condition", "compare"])
@pytest.mark.parametrize("model", ["grid:3x3", "grid3d:1x1x1"])
@pytest.mark.parametrize("precision", ["0", "-5"])
def test_precision_below_one_is_rejected_before_the_basis_is_built(
    monkeypatch, capsys, command, model, precision
):
    calls = []
    monkeypatch.setattr(cli.basis_mod, "generate_basis", lambda *args: calls.append(args))
    assert main([command, model, "--precision", precision]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: precision must be >= 1, got {precision}\n"
    assert calls == []


class TestCompare:
    def test_table_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        rc = main(
            ["compare", "grid:2x3:weak-beams", "--algorithms", "1,3,baseline", "--csv", str(csv_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split()[:3] == ["algorithm", "b1", "XD"]
        assert len(lines) == 4
        csv_lines = csv_path.read_text().strip().splitlines()
        assert csv_lines[0].startswith("algorithm,b1,XD,")
        assert len(csv_lines) == 4
        assert csv_lines[3].startswith("baseline,")

    def test_runs_are_deterministic(self, tmp_path):
        algorithms = [1, 2, 3, 4, 5]
        table1, csv1, _ = Analysis(load_or_generate("grid:3x3:checker")).compare(algorithms)
        table2, csv2, _ = Analysis(load_or_generate("grid:3x3:checker")).compare(algorithms)
        assert table1 == table2
        assert csv1 == csv2

    def test_3d_degrades_to_combinatorial_columns(self, capsys):
        assert main(["compare", "grid3d:2x1x1", "--algorithms", "1,3"]) == 0
        captured = capsys.readouterr()
        assert "combinatorial columns only" in captured.err
        for line in captured.out.strip().splitlines()[1:]:
            assert line.split()[-4:] == ["-", "-", "-", "-"]

    def test_builds_the_graph_once(self, monkeypatch):
        calls = []

        def counting_build_graph(*args, **kwargs):
            calls.append(args)
            return build_graph(*args, **kwargs)

        monkeypatch.setattr(cli, "build_graph", counting_build_graph)
        assert main(["compare", "grid:3x3:checker", "--algorithms", "1,2,3,4,5,baseline"]) == 0
        assert len(calls) == 1

    def test_alg5_ordering_applies_to_algorithm_5_alone(self, capsys):
        def rows(*options):
            assert main(["compare", "grid:3x3:checker", *options]) == 0
            return [line.split() for line in capsys.readouterr().out.splitlines()[1:]]

        ordering = ["--alg5-ordering", "length-ascending"]
        row1, row5 = rows("--algorithms", "1,5", *ordering)
        assert rows("--algorithms", "1") == [row1]
        assert rows("--algorithms", "5", *ordering) == [row5]
        assert rows("--algorithms", "5") != [row5]

    def test_unknown_algorithm_token(self, capsys):
        assert main(["compare", "grid:1x1", "--algorithms", "1,9"]) == 1
        assert "unknown algorithm '9'" in capsys.readouterr().err


class TestRender:
    def test_sparsity_pbm(self, tmp_path, capsys):
        out = tmp_path / "d.pbm"
        assert main(["render", "grid:3x4", "--sparsity", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("P1\n")

    def test_block_sparsity_and_svg(self, tmp_path):
        pbm = tmp_path / "g.pbm"
        svg = tmp_path / "frame.svg"
        rc = main(
            ["render", "grid:2x2", "--block", "--sparsity", str(pbm), "--frame", str(svg)]
        )
        assert rc == 0
        assert pbm.read_text().startswith("P1\n")
        assert "<svg" in svg.read_text()

    def test_no_output_selected(self, capsys):
        assert main(["render", "grid:1x1"]) == 2
        assert "choose --sparsity" in capsys.readouterr().err

    def test_no_output_is_rejected_before_the_basis_is_built(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.basis_mod, "generate_basis", lambda *args: calls.append(args))
        assert main(["render", "grid:8x8", "--algorithm", "5"]) == 2
        assert "choose --sparsity" in capsys.readouterr().err
        assert calls == []

    def test_block_on_a_space_frame_is_rejected(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.basis_mod, "generate_basis", lambda *args: calls.append(args))
        out = tmp_path / "x.pbm"
        argv = ["render", "grid3d:1x1x1", "--algorithm", "5", "--block", "--sparsity", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --block requires a planar model\n"
        assert not out.exists()
        assert calls == []

    def test_frame_on_a_space_frame_writes_nothing(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.basis_mod, "generate_basis", lambda *args: calls.append(args))
        pbm, svg = tmp_path / "x.pbm", tmp_path / "y.svg"
        argv = ["render", "grid3d:1x1x1", "--sparsity", str(pbm), "--frame", str(svg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: frame rendering is available for planar models only\n"
        assert not pbm.exists() and not svg.exists()
        assert calls == []


class TestErrors:
    def test_missing_file_is_reported(self, capsys):
        assert main(["cycles", "/nonexistent/frame.json"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda doc: doc["sections"]["heavy"].update(A=None),
                "section 'heavy': field 'A' must be a number, got null",
            ),
            (
                lambda doc: doc["nodes"][0].update(coords=0),
                "node 1: field 'coords' must be a list, got 0",
            ),
            (
                lambda doc: doc["sections"]["heavy"].update(E=float("nan")),
                "section 'heavy': field 'E' must be a number, got NaN",
            ),
        ],
    )
    def test_malformed_frame_file_is_reported(self, tmp_path, capsys, edit, message):
        path = tmp_path / "frame.json"
        assert main(["generate", "--stories", "1", "--spans", "1", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["cycles", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field,value,shown",
        [
            ("sections", [], "an object, got []"),
            ("nodes", 5, "a list, got 5"),
            ("members", {}, "a list, got {}"),
            ("supports", 3, "a list, got 3"),
        ],
    )
    def test_container_of_the_wrong_type_is_reported(self, tmp_path, capsys, field, value, shown):
        path = tmp_path / "frame.json"
        assert main(["generate", "--stories", "1", "--spans", "1", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["cycles", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: field '{field}' must be {shown}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["cycles", "condition", "force", "render"])
    def test_more_than_one_algorithm_is_reported(self, tmp_path, capsys, command):
        loads = tmp_path / "loads.json"
        write_load_case([(4, 1.0, 0.0, 0.0)], loads)
        options = {"force": ["--loads", str(loads)], "render": ["--frame", str(tmp_path / "f.svg")]}
        argv = [command, "grid:2x2", "--algorithm", "1,2", *options.get(command, [])]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: choose one algorithm, got '1,2'\n"
        assert captured.out == ""
        assert not (tmp_path / "f.svg").exists()

    def test_trailing_generator_spec_field_is_reported(self, capsys):
        assert main(["cycles", "grid:1x1:checker:junk"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: bad generator spec 'grid:1x1:checker:junk'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("spec", ["grid:1_0x1", "grid: 2x+1", "grid:２x1", "grid:2x-1"])
    def test_grid_size_that_is_not_plain_digits_is_reported(self, capsys, spec):
        assert main(["cycles", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bad generator spec '{spec}'\n"
        assert captured.out == ""

    def test_zero_grid_size_reaches_the_generator(self, capsys):
        assert main(["cycles", "grid:0x1"]) == 1
        assert capsys.readouterr().err == "error: stories and spans must be >= 1\n"

    @pytest.mark.parametrize("alpha", ["0", "-3"])
    @pytest.mark.parametrize(
        "command,options",
        [
            ("cycles", []),
            ("force", ["--loads", "loads.json"]),
            ("condition", []),
            ("compare", ["--algorithms", "1,2,3,4"]),
            ("render", ["--sparsity", "x.pbm", "--frame", "x.svg"]),
        ],
    )
    def test_alpha_below_one_is_rejected_before_the_model_is_loaded(
        self, tmp_path, monkeypatch, capsys, command, options, alpha
    ):
        write_load_case([(4, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
        monkeypatch.chdir(tmp_path)
        loaded = []
        monkeypatch.setattr(cli, "load_or_generate", loaded.append)
        assert main([command, "grid:2x2", "--alpha", alpha, *options]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: alpha must be a positive integer, got {alpha}\n"
        assert captured.out == ""
        assert loaded == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loads.json"]

    @pytest.mark.parametrize("command", ["force", "condition", "compare"])
    def test_member_flexibility_that_overflows_is_reported(self, tmp_path, capsys, command):
        # E*A is subnormal, so the beam's L/EA is inf.
        path = tmp_path / "frame.json"
        assert main(["generate", "--stories", "1", "--spans", "1", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["sections"]["weak"] = {"A": 1e-300, "E": 1e-10, "I": 1.0}
        doc["members"][2]["section"] = "weak"
        path.write_text(json.dumps(doc))
        write_load_case([(4, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
        options = {"force": ["--loads", str(tmp_path / "loads.json")]}
        capsys.readouterr()
        assert main([command, str(path), *options.get(command, [])]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: member 3: flexibility is not finite (section 'weak')\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["cycles", "condition", "force"])
    def test_member_whose_length_cubed_overflows_is_reported(self, tmp_path, capsys, command):
        # Lengths of 3e103 m: L**3 overflows a float in the member weight.
        path = tmp_path / "frame.json"
        assert main(["generate", "--stories", "1", "--spans", "1", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        for node in doc["nodes"]:
            node["coords"] = [1e103 * c for c in node["coords"]]
        path.write_text(json.dumps(doc))
        write_load_case([(4, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
        options = {"force": ["--loads", str(tmp_path / "loads.json")]}
        capsys.readouterr()
        assert main([command, str(path), *options.get(command, [])]) == 1
        captured = capsys.readouterr()
        first = doc["members"][0]["id"]
        assert captured.err == f"error: member {first} is too long: its length cubed overflows\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cycles", "grid:2x2", "--algorithm", "5", "--alpha", "1" + "0" * 400],
            ["condition", "grid:2x2", "--precision", str(10**400)],
            ["compare", "grid:2x2", "--algorithms", "1", "--precision", str(10**400)],
        ],
        ids=["cycles-alpha", "condition-precision", "compare-precision"],
    )
    def test_option_too_large_for_a_float_is_reported(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "must be at most 1.79769e+308" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("count", [1, 2])
    def test_loads_whose_forces_overflow_are_reported(self, tmp_path, capsys, count):
        # One fx = 1e308 overflows its moment; two overflow their sum.
        loads = tmp_path / "loads.json"
        write_load_case([(3, 1e308, 0.0, 0.0)] * count, loads)
        assert main(["force", "grid:1x1", "--loads", str(loads)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the loads overflow: their particular member forces are not finite\n"
        )
        assert captured.out == ""

    def test_loads_whose_residual_norms_would_overflow_give_a_finite_residual(
        self, tmp_path, capsys
    ):
        # The forces are finite, but squaring them inside a plain norm overflows.
        loads = tmp_path / "loads.json"
        write_load_case([(3, 5e307, 0.0, 0.0)], loads)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["force", "grid:1x1", "--loads", str(loads)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        name, _, value = last.partition(" = ")
        assert name == "compatibility residual"
        assert math.isfinite(float(value)) and float(value) < 1e-10


#: numpy.linalg functions that factor or decompose a matrix.
_FACTORISATIONS = "cholesky det eig eigh eigvals eigvalsh inv lstsq pinv qr slogdet solve svd"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["condition", "grid:4x4:checker"], {"cholesky": 1, "eigvalsh": 1}),
        (
            ["compare", "grid:4x4:checker", "--algorithms", "1,3,baseline"],
            {"cholesky": 3, "eigvalsh": 3},
        ),
        (["force", "grid:4x4:checker", "--loads", "loads.json"], {"cholesky": 1, "solve": 1}),
        (["render", "grid:4x4:checker", "--block", "--sparsity", "g.pbm"], {}),
    ],
    ids=["condition", "compare", "force", "render-block"],
)
def test_each_command_factors_g_once_per_use(tmp_path, monkeypatch, capsys, argv, expected):
    """G is factored only by the consumer that uses the factorisation:
    condition_report's Cholesky gives log det and is its SPD test, and
    the force solve's Cholesky is its SPD test; nothing runs slogdet."""
    write_load_case([(6, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
    monkeypatch.chdir(tmp_path)
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in _FACTORISATIONS.split():
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    assert main(argv) == 0
    assert dict(calls) == expected


class TestStaticallyDeterminateFrame:
    """A cantilever column: b1 = 0, so there is no cycle and G is empty."""

    @pytest.fixture
    def frame(self, tmp_path):
        path = tmp_path / "cantilever.json"
        doc = {
            "format_version": 1,
            "dimensionality": 2,
            "nodes": [{"id": 1, "coords": [0.0, 0.0]}, {"id": 2, "coords": [0.0, 3.0]}],
            "members": [{"id": 1, "a": 1, "b": 2, "section": "s"}],
            "sections": {"s": {"A": 0.0097, "I": 0.0001961, "E": 21000000.0}},
            "supports": [{"node": 1, "kind": "fixed"}],
        }
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["condition", "compare"])
    def test_conditioning_says_g_is_empty(self, frame, capsys, command):
        assert main([command, frame]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: G is empty: the frame has no cycles (b1 = 0)\n"
        assert captured.out == ""

    def test_force_prints_the_determinate_solution(self, frame, tmp_path, capsys):
        loads = tmp_path / "loads.json"
        write_load_case([(2, 10.0, 0.0, 0.0)], loads)
        assert main(["force", frame, "--loads", str(loads)]) == 0
        assert capsys.readouterr().out == (
            "member  N  V  M\n1  0  10  -30\ncompatibility residual = 0\n"
        )
