"""Command-line interface behavior, exercised through main(argv)."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oracles import write_load_case
import framecycles
from framecycles import cli, force, frames, metrics, render
from framecycles.cli import Analysis, load_or_generate, main
from framecycles.cholesky import _BLOCK
from framecycles.model import ModelError, build_graph, cycle_rank


def main_without_warnings(argv) -> int:
    """``main(argv)`` with every warning an error: pytest captures warnings,
    so a numpy RuntimeWarning that a real run prints to stderr before its
    error line would otherwise pass unseen."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


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

    def test_one_digit_of_precision_is_accepted(self, capsys):
        assert main(["condition", "grid:3x4", "--precision", "1"]) == 0
        assert "good digits (p=1) = -2.44644\n" in capsys.readouterr().out

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


def test_compare_accepts_one_digit_of_precision(capsys):
    """p = 1 is the least precision allowed; each row's g is then 1 - PL."""
    assert main(["compare", "grid:3x3", "--algorithms", "1,baseline", "--precision", "1"]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    for row in rows:
        values = dict(zip(header, row))
        assert float(values["g"]) == pytest.approx(1 - float(values["PL"]), abs=1e-5)


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

    def test_an_unwritable_csv_path_prints_no_table(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "out.csv"
        assert main(["compare", "grid:2x3:weak-beams", "--csv", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not csv_path.exists()

    def test_runs_are_deterministic(self, tmp_path):
        algorithms = [1, 2, 3, 4, 5]
        table1, csv1 = Analysis(load_or_generate("grid:3x3:checker")).compare(algorithms)
        table2, csv2 = Analysis(load_or_generate("grid:3x3:checker")).compare(algorithms)
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

    def test_algorithm_token_that_is_not_a_number(self, capsys):
        assert main(["compare", "grid:2x2", "--algorithms", "1,x"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown algorithm 'x'\n"
        assert captured.out == ""


class TestParser:
    """One parser serves every ``main`` call of a process and keeps nothing
    of one call for the next."""

    def test_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        assert main(["cycles", "grid:1x1"]) == 0
        assert main(["cycles", "grid:1x1"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_an_option_is_not_carried_to_the_next_call(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["compare", "grid:2x2", "--csv", str(csv_path)]) == 0
        table = capsys.readouterr().out
        csv_path.unlink()
        assert main(["compare", "grid:2x2"]) == 0
        assert capsys.readouterr().out == table
        assert list(tmp_path.iterdir()) == []

    def test_a_usage_error_leaves_the_next_call_as_a_fresh_process_runs_it(self, capsys):
        argv = ["compare", "grid:2x3:checker", "--algorithms", "1,5,baseline"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        command = [sys.executable, "-m", "framecycles.cli", *argv]
        fresh = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
        with pytest.raises(SystemExit) as exc:
            main(["compare"])
        assert exc.value.code == 2
        assert "usage: framecycles compare" in capsys.readouterr().err
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["cycles", "grid:1x1"], 0, ""),
        (["cycles", "grid:1x1:x:y"], 1, "error: bad generator spec 'grid:1x1:x:y'\n"),
        (["render", "grid:1x1"], 2, "error: choose --sparsity and/or --frame output paths\n"),
    ],
    ids=["ok", "rejected", "usage"],
)
def test_the_module_entry_point_exits_with_mains_code(capsys, argv, code, err):
    """``python -m framecycles.cli`` prints what ``main`` prints and exits
    with the code that ``main`` returns."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(framecycles.__file__))}
    command = [sys.executable, "-m", "framecycles.cli", *argv]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (run.returncode, run.stdout, run.stderr) == (code, captured.out, err)
    assert captured.err == err


def in_a_fresh_interpreter(statements: str, cwd) -> tuple[str, bool]:
    """Run *statements* in a new Python process in *cwd*: (the last line they
    print, whether numpy was imported by then)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(framecycles.__file__))}
    script = f"{statements}\nimport sys\nprint('numpy' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, check=True, capture_output=True, text=True
    )
    *printed, loaded = run.stdout.splitlines()
    return (printed[-1] if printed else ""), loaded == "True"


@pytest.mark.parametrize("module", ["framecycles", "framecycles.cli"])
def test_importing_the_package_loads_no_numpy(tmp_path, module):
    assert in_a_fresh_interpreter(f"import {module}", tmp_path) == ("", False)


@pytest.mark.parametrize(
    "argv,code,numpy_loaded",
    [
        (["generate", "--stories", "2", "--spans", "2", "-o", "frame.json"], 0, False),
        (["cycles", "grid:10x10:checker", "--algorithm", "2"], 0, False),
        (["compare", "grid3d:2x2x2:checker"], 0, False),
        (["render", "grid:2x2", "--frame", "frame.svg"], 0, False),
        (["cycles", "malformed.json"], 1, False),
        (["condition", "grid:2x2", "--precision", "0"], 1, False),
        (["force", "grid:2x2", "--loads", "malformed.json"], 1, False),
        (["condition", "grid:2x2"], 0, True),
    ],
    ids=[
        "generate",
        "cycles",
        "space-compare",
        "render-frame",
        "malformed-file",
        "rejected-precision",
        "malformed-loads",
        "condition",
    ],
)
def test_only_the_commands_that_compute_load_numpy(tmp_path, argv, code, numpy_loaded):
    """numpy is imported by the numeric layers alone, so a command that
    computes nothing numeric, or an input rejected before the command
    computes, runs without it; ``condition`` is the positive control."""
    (tmp_path / "malformed.json").write_text('{"format_version": 1, "nodes": 5}')
    statements = f"from framecycles.cli import main\nprint(main({argv!r}))"
    assert in_a_fresh_interpreter(statements, tmp_path) == (str(code), numpy_loaded)


class TestRender:
    def test_frame_rendering_takes_planar_models_only(self, tmp_path):
        analysis = Analysis(load_or_generate("grid3d:1x1x1"))
        svg = tmp_path / "frame.svg"
        with pytest.raises(ModelError, match="frame rendering is available for planar models only"):
            render.render_frame(analysis.model, analysis.basis(1), svg)
        assert not svg.exists()

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

    @pytest.mark.parametrize("frame", ["missing/a.svg", "folder"], ids=["no-folder", "a-folder"])
    def test_a_failed_output_leaves_no_output_behind(self, tmp_path, capsys, frame):
        (tmp_path / "folder").mkdir()
        pbm = tmp_path / "ok.pbm"
        argv = ["render", "grid:2x2", "--sparsity", str(pbm), "--frame", str(tmp_path / frame)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and frame in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]
        assert list((tmp_path / "folder").iterdir()) == []

    @pytest.mark.parametrize("frame", ["P", "./P"])
    def test_two_outputs_to_one_file_are_rejected(self, tmp_path, monkeypatch, capsys, frame):
        monkeypatch.chdir(tmp_path)
        assert main(["render", "grid:2x2", "--sparsity", "P", "--frame", frame]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: two outputs go to one file: {frame}\n"
        assert list(tmp_path.iterdir()) == []

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
            (lambda doc: doc["members"].append(dict(doc["members"][0])), "duplicate member id 1"),
            (lambda doc: doc.update(dimensionality=4), "dimensionality must be 2 or 3, got 4"),
        ],
    )
    def test_invalid_frame_model_is_reported(self, tmp_path, capsys, edit, message):
        path = tmp_path / "frame.json"
        assert main(["generate", "--stories", "1", "--spans", "1", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(frames.ParseError, match=message):
            frames.parse_model(path)
        capsys.readouterr()
        assert main(["cycles", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

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
            (
                lambda doc: doc["supports"][0].update(knd="pinned"),
                "support at node 1: unknown field 'knd'",
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

    def test_unknown_load_field_is_reported(self, tmp_path, capsys):
        """A misspelt load component is an error, not a load of zero."""
        loads = tmp_path / "loads.json"
        loads.write_text(json.dumps({"format_version": 1, "loads": [{"node": 3, "Fx": 5}]}))
        assert main(["force", "grid:2x2", "--loads", str(loads)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: load on node 3: unknown field 'Fx'\n")

    @pytest.mark.parametrize(
        "argv,text,key",
        [
            (["cycles", "FILE"], '{"format_version": 1, "format_version": 1}', "format_version"),
            (
                ["force", "grid:2x2", "--loads", "FILE"],
                '{"format_version": 1, "loads": [{"node": 3, "fx": 1, "fx": 500}]}',
                "fx",
            ),
        ],
        ids=["frame", "load"],
    )
    def test_repeated_key_is_reported(self, tmp_path, capsys, argv, text, key):
        """A key given twice is an error, not the last value silently kept."""
        path = tmp_path / "file.json"
        path.write_text(text)
        assert main([str(path) if arg == "FILE" else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: duplicate key '{key}'\n")

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

    @staticmethod
    def run_with_weak_beam(tmp_path, capsys, command, area):
        """Run *command* on a 1-story 1-span frame whose beam (member 3) has
        E = 1e-10 and A = *area*; the exit code must be 1, with nothing
        printed but the error line."""
        path = tmp_path / "frame.json"
        assert main(["generate", "--stories", "1", "--spans", "1", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["sections"]["weak"] = {"A": area, "E": 1e-10, "I": 1.0}
        doc["members"][2]["section"] = "weak"
        path.write_text(json.dumps(doc))
        write_load_case([(4, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
        options = {"force": ["--loads", str(tmp_path / "loads.json")]}
        capsys.readouterr()
        assert main_without_warnings([command, str(path), *options.get(command, [])]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: member 3: flexibility is not finite (section 'weak')\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["force", "condition", "compare"])
    def test_member_flexibility_that_overflows_is_reported(self, tmp_path, capsys, command):
        # E*A is subnormal, so the beam's L/EA is inf.
        self.run_with_weak_beam(tmp_path, capsys, command, 1e-300)

    @pytest.mark.parametrize("command", ["force", "condition", "compare"])
    def test_member_whose_ea_underflows_to_zero_is_reported(self, tmp_path, capsys, command):
        # E*A is 0, so the beam's L/EA divides by zero; its weight stays positive.
        self.run_with_weak_beam(tmp_path, capsys, command, 1e-320)

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
        assert main_without_warnings([command, str(path), *options.get(command, [])]) == 1
        captured = capsys.readouterr()
        first = doc["members"][0]["id"]
        assert captured.err == f"error: member {first} is too long: its length cubed overflows\n"
        assert captured.out == ""

    @staticmethod
    def run_with_short_column(tmp_path, capsys, command, height):
        """Run *command* on a 2-story 2-span frame with node 4 *height* m
        above support 1; the exit code must be 1.  Gives the captured output
        and the column's member id."""
        path = tmp_path / "frame.json"
        assert main(["generate", "--stories", "2", "--spans", "2", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        (node,) = [n for n in doc["nodes"] if n["id"] == 4]
        node["coords"] = [0.0, height]
        path.write_text(json.dumps(doc))
        write_load_case([(5, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
        options = {"force": ["--loads", str(tmp_path / "loads.json")]}
        capsys.readouterr()
        assert main([command, str(path), *options.get(command, [])]) == 1
        (column,) = [m["id"] for m in doc["members"] if {m["a"], m["b"]} == {1, 4}]
        return capsys.readouterr(), column

    @pytest.mark.parametrize("command", ["cycles", "condition", "force"])
    def test_member_whose_length_cubed_underflows_is_reported(self, tmp_path, capsys, command):
        # Node 4 sits 1e-320 m above support 1: the column's L**3 is 0.
        captured, column = self.run_with_short_column(tmp_path, capsys, command, 1e-320)
        assert captured.err == f"error: member {column} is too short: its length cubed underflows\n"
        assert captured.out == ""

    @pytest.mark.parametrize("height", [1e-105, 5e-102])
    @pytest.mark.parametrize("command", ["cycles", "condition", "force"])
    def test_member_whose_weight_overflows_is_reported(self, tmp_path, capsys, command, height):
        # The column's L**3 is a tiny nonzero float, and 12EI/L**3 is inf.
        captured, column = self.run_with_short_column(tmp_path, capsys, command, height)
        expected = f"error: member {column} is too short or too stiff: its weight overflows\n"
        assert captured.err == expected
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


#: numpy.linalg functions that factor, invert or decompose a matrix.
_FACTORISATIONS = "cholesky det eig eigh eigvals eigvalsh inv lstsq pinv qr slogdet solve svd"


@pytest.mark.parametrize(
    "argv,factored,others",
    [
        (["condition", "grid:6x6:checker"], 1, {"cholesky", "inv", "eigh"}),
        (
            ["compare", "grid:6x6:checker", "--algorithms", "1,3,baseline"],
            3,
            {"cholesky", "inv", "eigh"},
        ),
        (["force", "grid:6x6:checker", "--loads", "loads.json"], 1, {"cholesky", "inv"}),
        (["render", "grid:6x6:checker", "--block", "--sparsity", "g.pbm"], 0, set()),
    ],
    ids=["condition", "compare", "force", "render-block"],
)
def test_each_command_factors_g_once_per_use(tmp_path, monkeypatch, argv, factored, others):
    """Each G is factored once, by the consumer that uses the factor:
    condition_report's Cholesky is its SPD test, gives log det and applies
    G^-1 for the smallest eigenvalue, and the force solve's Cholesky is its
    SPD test and the factor it solves with.  The factor works along G's
    band, so no LAPACK call sees G: nothing runs slogdet, an LU solve or an
    eigendecomposition of it, every call acts on a square matrix strictly
    smaller than G, cholesky and inv on diagonal blocks of at most _BLOCK
    rows, and eigh on the symmetric tridiagonal of a Lanczos run."""
    write_load_case([(10, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
    monkeypatch.chdir(tmp_path)
    calls = []

    def recorded(name, function):
        def wrapper(*args, **kwargs):
            calls.append((name, np.array(args[0], dtype=float)))
            return function(*args, **kwargs)

        return wrapper

    for name in _FACTORISATIONS.split():
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    for consumer in (force, metrics):
        monkeypatch.setattr(consumer, "cholesky", recorded("factor", consumer.cholesky))
    assert main(argv) == 0
    n = 3 * cycle_rank(build_graph(load_or_generate("grid:6x6:checker")))
    assert [a.shape for name, a in calls if name == "factor"] == [(n, n)] * factored
    lapack = [(name, a) for name, a in calls if name != "factor"]
    assert {name for name, _ in lapack} == others
    assert all(a.ndim == 2 and a.shape[0] == a.shape[1] < n for _, a in lapack)
    assert all(len(a) <= _BLOCK for name, a in lapack if name in ("cholesky", "inv"))
    tridiagonal = [a for name, a in lapack if name == "eigh"]
    assert all(np.array_equal(a, np.tril(np.triu(a, -1), 1)) for a in tridiagonal)
    assert all(np.array_equal(a, a.T) for a in tridiagonal)


@pytest.mark.parametrize(
    "argv,built",
    [
        (["condition", "grid:6x6:checker"], 1),
        (["compare", "grid:6x6:checker", "--algorithms", "1,3,baseline"], 3),
        (["force", "grid:6x6:checker", "--loads", "loads.json"], 1),
        (["render", "grid:6x6:checker", "--block", "--sparsity", "g.pbm"], 0),
    ],
    ids=["condition", "compare", "force", "render-block"],
)
def test_each_command_builds_the_member_geometry_once_per_g(tmp_path, monkeypatch, argv, built):
    """One member geometry per B1: the force solve builds its loads' forces,
    B1 and the member order from one, and render --block builds no B1."""
    write_load_case([(10, 1.0, 0.0, 0.0)], tmp_path / "loads.json")
    monkeypatch.chdir(tmp_path)
    models = []

    def counting(model):
        models.append(model)
        return geometry(model)

    geometry = force._geometry
    monkeypatch.setattr(force, "_geometry", counting)
    assert main(argv) == 0
    assert len(models) == built


class TestStaticallyDeterminateFrame:
    """A cantilever column: b1 = 0, so there is no cycle and G is empty."""

    @staticmethod
    def cantilever(tmp_path, ndim):
        path = tmp_path / f"cantilever{ndim}d.json"
        doc = {
            "format_version": 1,
            "dimensionality": ndim,
            "nodes": [{"id": 1, "coords": [0.0] * ndim}, {"id": 2, "coords": [0.0] * (ndim - 1) + [3.0]}],
            "members": [{"id": 1, "a": 1, "b": 2, "section": "s"}],
            "sections": {"s": {"A": 0.0097, "I": 0.0001961, "E": 21000000.0}},
            "supports": [{"node": 1, "kind": "fixed"}],
        }
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.fixture
    def frame(self, tmp_path):
        return self.cantilever(tmp_path, 2)

    def test_sparsity_is_an_empty_raster(self, frame, tmp_path, capsys):
        out = tmp_path / "d.pbm"
        assert main(["render", frame, "--sparsity", str(out)]) == 0
        assert out.read_bytes() == b"P1\n0 0\n"
        assert capsys.readouterr().out == f"wrote {out}\n"

    def test_space_compare_prints_xd_0(self, tmp_path, capsys):
        frame = self.cantilever(tmp_path, 3)
        assert main(["compare", frame, "--algorithms", "1,baseline"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: 3D model, reporting combinatorial columns only\n"
        assert captured.out == (
            "algorithm  b1  XD  sumL  overlapL  overlapW  PL  PN  PDET  g\n"
            "1          0   0   0     0         0         -   -   -     -\n"
            "baseline   0   0   0     0         0         -   -   -     -\n"
        )

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
