"""Command-line interface behavior, exercised through main(argv)."""

import json

import pytest

from framecycles import cli
from framecycles.cli import Analysis, load_or_generate, main
from framecycles.frames import write_load_case
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
