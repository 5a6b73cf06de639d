"""Frame file parsing/writing and the rectangular grid generators."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import write_load_case
from framecycles.frames import (
    FORMAT_VERSION,
    HEAVY_SECTION,
    LIGHT_SECTION,
    ParseError,
    generate_grid,
    parse_load_case,
    parse_model,
    write_model,
)
from framecycles.model import ModelError

NAN, INF = float("nan"), float("inf")


def valid_doc():
    return {
        "format_version": FORMAT_VERSION,
        "dimensionality": 2,
        "sections": {"s": {"A": 0.0097, "I": 0.0001961, "E": 2.1e7}},
        "nodes": [
            {"id": 1, "coords": [0.0, 0.0]},
            {"id": 2, "coords": [0.0, 3.0]},
            {"id": 3, "coords": [3.0, 3.0]},
            {"id": 4, "coords": [3.0, 0.0]},
        ],
        "members": [
            {"id": 1, "a": 1, "b": 2, "section": "s"},
            {"id": 2, "a": 2, "b": 3, "section": "s"},
            {"id": 3, "a": 3, "b": 4, "section": "s"},
        ],
        "supports": [{"node": 1, "kind": "fixed"}, {"node": 4, "kind": "fixed"}],
    }


def write_doc(tmp_path, doc, name="frame.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseModel:
    def test_valid_file(self, tmp_path):
        model = parse_model(write_doc(tmp_path, valid_doc()))
        assert len(model.nodes) == 4
        assert len(model.members) == 3
        assert list(model.supports) == [1, 4]
        assert model.ndim == 2

    def test_round_trip(self, tmp_path):
        original = generate_grid(2, 3, pattern="checker")
        path = tmp_path / "grid.json"
        write_model(original, path)
        restored = parse_model(path)
        assert restored.nodes == original.nodes
        assert restored.members == original.members
        assert restored.supports == original.supports
        assert restored.sections == original.sections

    def test_3d_round_trip(self, tmp_path):
        original = generate_grid(2, 1, 1)
        path = tmp_path / "grid3d.json"
        write_model(original, path)
        restored = parse_model(path)
        assert restored.ndim == 3
        assert restored.nodes == original.nodes

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_model(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ParseError, match="top level"):
            parse_model(path)

    def test_bad_format_version(self, tmp_path):
        doc = valid_doc()
        doc["format_version"] = 99
        with pytest.raises(ParseError, match="format_version 99"):
            parse_model(write_doc(tmp_path, doc))

    def test_missing_field_is_named(self, tmp_path):
        doc = valid_doc()
        del doc["members"][1]["section"]
        with pytest.raises(ParseError, match="member 2: missing field 'section'"):
            parse_model(write_doc(tmp_path, doc))

    def test_bad_section_property_is_named(self, tmp_path):
        doc = valid_doc()
        doc["sections"]["s"]["A"] = -1.0
        with pytest.raises(ParseError, match="section 's'"):
            parse_model(write_doc(tmp_path, doc))

    def test_unsupported_support_kind(self, tmp_path):
        doc = valid_doc()
        doc["supports"][0]["kind"] = "pinned"
        with pytest.raises(ParseError, match="unsupported kind 'pinned'"):
            parse_model(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "where,value,message",
        [
            (("sections", "s", "A"), None, "section 's': field 'A' must be a number, got null"),
            (("sections", "s", "E"), "stiff", "section 's': field 'E' must be a number"),
            (("nodes", 1, "coords"), 0, "node 2: field 'coords' must be a list, got 0"),
            (("nodes", 1, "coords"), [0.0, None], r"node 2: coords\[1\] must be a number"),
            (("nodes", 0, "id"), None, "node: field 'id' must be an integer, got null"),
            (("members", 2, "id"), None, "member: field 'id' must be an integer"),
            (("members", 0, "b"), [2], "member 1: field 'b' must be an integer"),
            (("supports", 0, "node"), "one", "support: field 'node' must be an integer"),
            (("nodes", 1), 7, "node: expected an object, got 7"),
            (("sections",), [], r"frame.json: field 'sections' must be an object, got \[\]"),
            (("sections", "s"), [1.0], r"section 's': expected an object, got \[1.0\]"),
            (("nodes",), 5, "frame.json: field 'nodes' must be a list, got 5"),
            (("nodes",), "1234", "frame.json: field 'nodes' must be a list, got \"1234\""),
            (("members",), {}, r"frame.json: field 'members' must be a list, got \{\}"),
            (("supports",), 3, "frame.json: field 'supports' must be a list, got 3"),
            (("supports",), None, "frame.json: field 'supports' must be a list, got null"),
            (("members", 0, "b"), 3.9, "member 1: field 'b' must be an integer, got 3.9"),
            (("members", 0, "id"), "7", "member: field 'id' must be an integer, got \"7\""),
            (("nodes", 0, "id"), True, "node: field 'id' must be an integer, got true"),
            (("sections", "s", "E"), "2.1e7", "field 'E' must be a number, got \"2.1e7\""),
            (("sections", "s", "A"), NAN, "section 's': field 'A' must be a number, got NaN"),
            (("sections", "s", "I"), INF, "section 's': field 'I' must be a number, got Infinity"),
            (("sections", "s", "I"), False, "section 's': field 'I' must be a number, got false"),
            (("nodes", 1, "coords"), [0.0, NAN], r"node 2: coords\[1\] must be a number, got NaN"),
            (("nodes", 1, "coords"), [-INF, 3.0], r"node 2: coords\[0\] must be a number"),
            (("format_version",), True, "field 'format_version' must be an integer, got true"),
            (("format_version",), "1", "field 'format_version' must be an integer"),
            (("dimensionality",), 2.0, "field 'dimensionality' must be an integer, got 2.0"),
            (("dimensionality",), "2", "field 'dimensionality' must be an integer, got \"2\""),
            (("dimensionality",), None, "field 'dimensionality' must be an integer, got null"),
            (("members", 1, "section"), None, "member 2: field 'section' must be a string, got null"),
            (("members", 1, "section"), 5, "member 2: field 'section' must be a string, got 5"),
            (("supports", 0, "kind"), None, "support at node 1: field 'kind' must be a string"),
            (("comment",), "x", "frame.json: unknown field 'comment'"),
            (("sections", "s", "G"), 8.1e6, "section 's': unknown field 'G'"),
            (("nodes", 1, "coord"), [0.0, 3.0], "node 2: unknown field 'coord'"),
            (("members", 0, "sect"), "s", "member 1: unknown field 'sect'"),
            (("supports", 0, "knd"), "pinned", "support at node 1: unknown field 'knd'"),
        ],
    )
    def test_bad_field_type_is_named(self, tmp_path, where, value, message):
        doc = valid_doc()
        # sections that a section reference turned into a string would name
        doc["sections"].update({"None": doc["sections"]["s"], "5": doc["sections"]["s"]})
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ParseError, match=message):
            parse_model(write_doc(tmp_path, doc))

    def test_model_validation_wrapped(self, tmp_path):
        doc = valid_doc()
        doc["members"].append({"id": 4, "a": 1, "b": 9, "section": "s"})
        with pytest.raises(ParseError, match="missing node 9"):
            parse_model(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "text,repeated,key",
        [
            ('"dimensionality": 2', '"dimensionality": 2, "dimensionality": 3', "dimensionality"),
            ('"sections": {', '"sections": {"s": {"A": 1.0, "I": 1.0, "E": 1.0}, ', "s"),
            ('"A": 0.0097', '"A": 0.0097, "A": 1.0', "A"),
            ('"coords": [0.0, 3.0]', '"coords": [0.0, 3.0], "coords": [0.0, 4.0]', "coords"),
            ('"section": "s"}', '"section": "s", "section": "t"}', "section"),
            ('"kind": "fixed"', '"kind": "fixed", "kind": "fixed"', "kind"),
        ],
        ids=["top-level", "section-name", "section", "node", "member", "support-same-value"],
    )
    def test_repeated_key_is_named(self, tmp_path, text, repeated, key):
        """A key given twice in one object is an error, even with equal
        values, where ``json`` alone would keep the last and drop the rest."""
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(valid_doc()).replace(text, repeated, 1))
        with pytest.raises(ParseError, match=f"frame.json: duplicate key '{key}'$"):
            parse_model(path)


class TestLoadCaseFiles:
    def test_round_trip(self, tmp_path):
        loads = [(5, 1.5, -2.0, 0.25), (7, 0.0, 0.0, 3.0)]
        path = tmp_path / "loads.json"
        write_load_case(loads, path)
        assert parse_load_case(path) == loads

    def test_missing_components_default_to_zero(self, tmp_path):
        path = tmp_path / "loads.json"
        path.write_text(json.dumps({"format_version": 1, "loads": [{"node": 3, "fy": -1.0}]}))
        assert parse_load_case(path) == [(3, 0.0, -1.0, 0.0)]

    def test_bad_version(self, tmp_path):
        path = tmp_path / "loads.json"
        path.write_text(json.dumps({"format_version": 2, "loads": []}))
        with pytest.raises(ParseError, match="format_version"):
            parse_load_case(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_an_integer(self, tmp_path, version):
        path = tmp_path / "loads.json"
        path.write_text(json.dumps({"format_version": version, "loads": []}))
        with pytest.raises(ParseError, match="field 'format_version' must be an integer"):
            parse_load_case(path)

    def test_load_needs_node(self, tmp_path):
        path = tmp_path / "loads.json"
        path.write_text(json.dumps({"format_version": 1, "loads": [{"fx": 1.0}]}))
        with pytest.raises(ParseError, match="load: missing field 'node'"):
            parse_load_case(path)

    def test_unknown_top_level_field_is_named(self, tmp_path):
        path = tmp_path / "loads.json"
        path.write_text(json.dumps({"format_version": 1, "loads": [], "load": []}))
        with pytest.raises(ParseError, match="loads.json: unknown field 'load'$"):
            parse_load_case(path)

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"format_version": 1, "loads": [{"node": 3, "fx": 1, "fx": 500}]}', "fx"),
            ('{"format_version": 1, "loads": [], "loads": [{"node": 3, "fx": 1}]}', "loads"),
        ],
        ids=["load", "top-level"],
    )
    def test_repeated_key_is_named(self, tmp_path, text, key):
        path = tmp_path / "loads.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"loads.json: duplicate key '{key}'$"):
            parse_load_case(path)

    @pytest.mark.parametrize(
        "load,message",
        [
            ({"node": 3, "fx": None}, "load on node 3: field 'fx' must be a number, got null"),
            ({"node": 3, "mz": "big"}, "load on node 3: field 'mz' must be a number"),
            ({"node": None, "fx": 1.0}, "load: field 'node' must be an integer, got null"),
            ({"node": 3.0}, "load: field 'node' must be an integer, got 3.0"),
            ({"node": True}, "load: field 'node' must be an integer, got true"),
            ({"node": 3, "fy": "1.5"}, "load on node 3: field 'fy' must be a number"),
            ({"node": 3, "fx": NAN}, "load on node 3: field 'fx' must be a number, got NaN"),
            ({"node": 3, "mz": -INF}, "load on node 3: field 'mz' must be a number, got -Infinity"),
            ({"node": 3, "fy": 10**400}, "load on node 3: field 'fy' must be a number"),
            ({"node": 3, "Fx": 5}, "load on node 3: unknown field 'Fx'"),
            ({"node": 3, "fx": 1, "my": 2, "Mz": 3}, "load on node 3: unknown field 'my'"),
        ],
    )
    def test_bad_field_type_is_named(self, tmp_path, load, message):
        path = tmp_path / "loads.json"
        path.write_text(json.dumps({"format_version": 1, "loads": [load]}))
        with pytest.raises(ParseError, match=message):
            parse_load_case(path)

    @pytest.mark.parametrize("loads", [{"node": 3}, 3, None])
    def test_loads_must_be_a_list(self, tmp_path, loads):
        path = tmp_path / "loads.json"
        path.write_text(json.dumps({"format_version": 1, "loads": loads}))
        with pytest.raises(ParseError, match="loads.json: field 'loads' must be a list"):
            parse_load_case(path)


class TestGenerateGrid:
    def test_counts(self):
        model = generate_grid(3, 4)
        assert len(model.nodes) == 4 * 5
        assert len(model.members) == 3 * (5 + 4)
        assert len(model.supports) == 5

    def test_geometry(self):
        model = generate_grid(1, 1, bay=4.0, height=2.5)
        coords = {n.id: n.coords for n in model.nodes}
        assert coords[1] == (0.0, 0.0)
        assert coords[4] == (4.0, 2.5)

    def test_member_numbering_columns_before_beams(self):
        model = generate_grid(2, 2)
        sections_by_id = {m.id: (m.a, m.b) for m in model.members}
        # story 1: columns 1-3 vertical, beams 4-5 horizontal
        assert sections_by_id[1] == (1, 4)
        assert sections_by_id[4] == (4, 5)

    @pytest.mark.parametrize(
        "pattern,beam_section,column_section",
        [
            ("homogeneous", "heavy", "heavy"),
            ("weak-beams", "light", "heavy"),
            ("weak-columns", "heavy", "light"),
        ],
    )
    def test_uniform_patterns(self, pattern, beam_section, column_section):
        model = generate_grid(2, 2, pattern=pattern)
        for m in model.members:
            ya = model.node(m.a).coords[1]
            yb = model.node(m.b).coords[1]
            expected = column_section if ya != yb else beam_section
            assert m.section == expected

    def test_checker_mixes_sections(self):
        model = generate_grid(2, 3, pattern="checker")
        used = {m.section for m in model.members}
        assert used == {"light", "heavy"}

    def test_section_values(self):
        model = generate_grid(1, 1, pattern="weak-beams")
        assert model.sections["heavy"] == HEAVY_SECTION
        assert model.sections["light"] == LIGHT_SECTION

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ModelError, match=">= 1"):
            generate_grid(0, 2)
        with pytest.raises(ModelError, match="pattern"):
            generate_grid(1, 1, pattern="striped")

    def test_rejects_nonfinite_sizes(self):
        for sizes in (dict(bay=math.inf), dict(bay=math.nan), dict(height=math.inf)):
            with pytest.raises(ModelError, match="non-finite coordinate"):
                generate_grid(1, 1, **sizes)


class TestGenerateGrid3d:
    def test_counts(self):
        model = generate_grid(2, 1, 1)
        assert len(model.nodes) == 3 * 4
        # per story: 4 columns + 2 beams in x + 2 beams in y
        assert len(model.members) == 2 * 8
        assert len(model.supports) == 4
        assert model.ndim == 3

    def test_coordinates_are_3d(self):
        model = generate_grid(1, 1, 1)
        assert all(len(n.coords) == 3 for n in model.nodes)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ModelError, match=">= 1"):
            generate_grid(1, 0, 1)


# --- fuzzed documents ---------------------------------------------------------

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)

#: Any JSON value, NaN and the infinities included (``json`` writes and reads
#: them); mostly scalars, as containers in a scalar's place fail at once.
JSON = SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

VALID_LOADS = {"format_version": FORMAT_VERSION, "loads": [{"node": 2, "fx": 1.0, "mz": -0.5}]}


def field_paths(value, prefix=()):
    """The key path of *value* and of every field nested in it."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from field_paths(child, prefix + (key,))


def replaced(doc, path, value):
    """A copy of *doc* with the field at *path* replaced by *value*."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def is_int(value):
    return type(value) is int


def is_finite_float(value):
    return type(value) is float and math.isfinite(value)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(list(field_paths(valid_doc()))), JSON)
def test_fuzzed_frame_gives_a_model_or_a_parse_error(tmp_path_factory, path, value):
    """One field of a valid frame replaced by any JSON: a model or a ParseError,
    and an accepted model holds integer ids and finite numbers only."""
    file = write_doc(tmp_path_factory.getbasetemp(), replaced(valid_doc(), path, value))
    try:
        model = parse_model(file)
    except ParseError:
        return
    assert is_int(model.ndim)
    assert all(is_finite_float(x) for s in model.sections.values() for x in (s.A, s.I, s.E))
    assert all(is_int(n.id) and all(map(is_finite_float, n.coords)) for n in model.nodes)
    assert all(is_int(m.id) and is_int(m.a) and is_int(m.b) for m in model.members)
    assert all(map(is_int, model.supports))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(list(field_paths(VALID_LOADS))), JSON)
def test_fuzzed_load_case_gives_loads_or_a_parse_error(tmp_path_factory, path, value):
    """One field of a valid load case replaced by any JSON: integer nodes and
    finite components, or a ParseError."""
    doc = replaced(VALID_LOADS, path, value)
    file = write_doc(tmp_path_factory.getbasetemp(), doc, "loads.json")
    try:
        loads = parse_load_case(file)
    except ParseError:
        return
    for node, *components in loads:
        assert is_int(node) and all(map(is_finite_float, components))
