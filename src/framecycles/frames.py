"""Frame description files and rectangular grid generators.

Frame files are JSON with a format-version field; the schema mirrors the
model types: sections{}, nodes[], members[], supports[].  The generators
produce the rectangular test frames used throughout: fixed bases, 3 m bays
and story heights by default, and named section patterns for heterogeneous
variants.
"""

from __future__ import annotations

import json
import sys

from framecycles.model import (
    FrameMember,
    FrameNode,
    ModelError,
    Section,
    StructuralModel,
)

FORMAT_VERSION = 1

#: Section properties for the standard test frames (lengths in m, E in t/m^2).
LIGHT_SECTION = Section(A=0.00106, I=0.00000171, E=2.1e7)
HEAVY_SECTION = Section(A=0.00970, I=0.00019610, E=2.1e7)

PATTERNS = ("homogeneous", "weak-beams", "weak-columns", "checker")


class ParseError(ModelError):
    """A frame or load file failed validation; the message names the field."""


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind: type, field: str):
    """*value* as a JSON integer, finite number, string, list or object (*kind*
    ``int``, ``float``, ``str``, ``list`` or ``dict``; a ``float`` field takes
    an integer too); anything else, a bool, a numeric string or NaN too, is a
    ParseError naming *field*."""
    if type(value) is kind and kind is not float:
        return value
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ParseError(f"{field} must be {_KINDS[kind]}, got {json.dumps(value)}")


def _field(mapping: dict, key: str, context: str, kind: type, default=None):
    """mapping[key] checked by ``_typed``; a missing key takes *default* unless
    that is None."""
    if not isinstance(mapping, dict):
        raise ParseError(f"{context}: expected an object, got {json.dumps(mapping)}")
    value = mapping.get(key, default)
    if value is None and key not in mapping:
        raise ParseError(f"{context}: missing field '{key}'")
    return _typed(value, kind, f"{context}: field '{key}'")


def _read_document(path) -> dict:
    """The top-level object of a frame or load file, its format_version checked."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    version = _field(doc, "format_version", str(path), int)
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version {version}")
    return doc


def parse_model(path) -> StructuralModel:
    """Load and validate a frame description file."""
    doc = _read_document(path)
    ndim = _field(doc, "dimensionality", str(path), int, default=2)

    sections = {}
    for name, raw in _field(doc, "sections", str(path), dict).items():
        context = f"section '{name}'"
        A, I, E = (_field(raw, key, context, float) for key in ("A", "I", "E"))
        try:
            sections[name] = Section(A=A, I=I, E=E)
        except ModelError as exc:
            raise ParseError(f"{context}: {exc}") from exc

    nodes = []
    for raw in _field(doc, "nodes", str(path), list):
        nid = _field(raw, "id", "node", int)
        coords = _field(raw, "coords", f"node {nid}", list)
        values = (_typed(c, float, f"node {nid}: coords[{i}]") for i, c in enumerate(coords))
        nodes.append(FrameNode(nid, tuple(values)))

    members = []
    for raw in _field(doc, "members", str(path), list):
        mid = _field(raw, "id", "member", int)
        context = f"member {mid}"
        a, b = _field(raw, "a", context, int), _field(raw, "b", context, int)
        members.append(FrameMember(mid, a, b, _field(raw, "section", context, str)))

    supports = []
    for raw in _field(doc, "supports", str(path), list):
        node = _field(raw, "node", "support", int)
        kind = _field(raw, "kind", f"support at node {node}", str, "fixed")
        if kind != "fixed":
            raise ParseError(f"support at node {node}: unsupported kind '{kind}'")
        supports.append(node)

    try:
        return StructuralModel(nodes, members, sections, supports, ndim)
    except ModelError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_model(model: StructuralModel, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "dimensionality": model.ndim,
        "sections": {
            name: {"A": s.A, "I": s.I, "E": s.E} for name, s in sorted(model.sections.items())
        },
        "nodes": [{"id": n.id, "coords": list(n.coords)} for n in model.nodes],
        "members": [
            {"id": m.id, "a": m.a, "b": m.b, "section": m.section} for m in model.members
        ],
        "supports": [{"node": s, "kind": "fixed"} for s in model.supports],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_load_case(path) -> list[tuple[int, float, float, float]]:
    """Load a nodal load case file: list of (node, fx, fy, moment)."""
    loads = []
    for raw in _field(_read_document(path), "loads", str(path), list):
        node = _field(raw, "node", "load", int)
        context = f"load on node {node}"
        fx, fy, mz = (_field(raw, key, context, float, 0.0) for key in ("fx", "fy", "mz"))
        loads.append((node, fx, fy, mz))
    return loads


def _section_for(pattern: str, is_beam: bool, story: int, index: int) -> str:
    if pattern == "homogeneous":
        return "heavy"
    if pattern == "weak-beams":
        return "light" if is_beam else "heavy"
    if pattern == "weak-columns":
        return "heavy" if is_beam else "light"
    if pattern == "checker":
        return "light" if (story + index) % 2 == 0 else "heavy"
    raise ModelError(f"unknown section pattern '{pattern}'")


def _grid(stories, spans_x, spans_y, bay, height, pattern) -> StructuralModel:
    """The grid of both generators; *spans_y* None is the planar frame, built
    as the space frame's one row of bays without its y coordinate.

    Nodes go level by level, row by row along x; members story by story:
    columns, then beams along x, then beams along y.
    """
    planar = spans_y is None
    if min(stories, spans_x, 1 if planar else spans_y) < 1:
        raise ModelError("stories and spans must be >= 1")
    rows = 1 if planar else spans_y + 1

    def node_id(ix: int, iy: int, level: int) -> int:
        return (level * rows + iy) * (spans_x + 1) + ix + 1

    def coords(ix: int, iy: int, level: int) -> tuple:
        if planar:
            return (ix * bay, level * height)
        return (ix * bay, iy * bay, level * height)

    nodes = [
        FrameNode(node_id(ix, iy, level), coords(ix, iy, level))
        for level in range(stories + 1)
        for iy in range(rows)
        for ix in range(spans_x + 1)
    ]
    members = []
    for story in range(1, stories + 1):
        # the step from end a to end b of a column, an x-beam and a y-beam
        for dx, dy, dz in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
            for iy in range(rows - dy):
                for ix in range(spans_x + 1 - dx):
                    a, b = node_id(ix, iy, story - dz), node_id(ix + dx, iy + dy, story)
                    section = _section_for(pattern, dz == 0, story, ix + iy)
                    members.append(FrameMember(len(members) + 1, a, b, section))
    supports = [node_id(ix, iy, 0) for iy in range(rows) for ix in range(spans_x + 1)]
    sections = {"light": LIGHT_SECTION, "heavy": HEAVY_SECTION}
    return StructuralModel(nodes, members, sections, supports, ndim=2 if planar else 3)


def generate_grid(
    stories: int,
    spans: int,
    bay: float = 3.0,
    height: float = 3.0,
    pattern: str = "homogeneous",
) -> StructuralModel:
    """Rectangular planar frame with fixed bases.

    Nodes are numbered level by level from the base; members story by story,
    columns before beams.
    """
    return _grid(stories, spans, None, bay, height, pattern)


def generate_grid3d(
    stories: int,
    spans_x: int,
    spans_y: int,
    bay: float = 3.0,
    height: float = 3.0,
    pattern: str = "homogeneous",
) -> StructuralModel:
    """Rectangular space frame with fixed bases (combinatorial use only)."""
    return _grid(stories, spans_x, spans_y, bay, height, pattern)
