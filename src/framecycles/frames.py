"""Frame description files and rectangular grid generators.

Frame files are JSON with a format-version field; the schema mirrors the
model types: sections{}, nodes[], members[], supports[].  The generators
produce the rectangular test frames used throughout: fixed bases, 3 m bays
and story heights by default, and named section patterns for heterogeneous
variants.
"""

from __future__ import annotations

import json

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


def _require(mapping: dict, key: str, context: str, convert=None):
    """mapping[key], through ``int`` or ``float`` if *convert* is given."""
    if not isinstance(mapping, dict):
        raise ParseError(f"{context}: expected an object, got {json.dumps(mapping)}")
    if key not in mapping:
        raise ParseError(f"{context}: missing field '{key}'")
    if convert is None:
        return mapping[key]
    return _number(mapping[key], convert, f"{context}: field '{key}'")


def _container(mapping: dict, key: str, context: str, kind: type):
    """mapping[key], which must be a JSON list (*kind* ``list``) or object (``dict``)."""
    value = _require(mapping, key, context)
    if not isinstance(value, kind):
        name = "a list" if kind is list else "an object"
        raise ParseError(f"{context}: field '{key}' must be {name}, got {json.dumps(value)}")
    return value


def _number(value, convert, field: str):
    """*value* through ``int`` or ``float``; a ParseError names *field* if it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        kind = "an integer" if convert is int else "a number"
        raise ParseError(f"{field} must be {kind}, got {json.dumps(value)}") from None


def parse_model(path) -> StructuralModel:
    """Load and validate a frame description file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    version = _require(doc, "format_version", str(path))
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version {version}")
    ndim = doc.get("dimensionality", 2)

    sections = {}
    for name, raw in _container(doc, "sections", str(path), dict).items():
        context = f"section '{name}'"
        A, I, E = (_require(raw, key, context, float) for key in ("A", "I", "E"))
        try:
            sections[name] = Section(A=A, I=I, E=E)
        except ModelError as exc:
            raise ParseError(f"{context}: {exc}") from exc

    nodes = []
    for raw in _container(doc, "nodes", str(path), list):
        nid = _require(raw, "id", "node", int)
        coords = _container(raw, "coords", f"node {nid}", list)
        values = (_number(c, float, f"node {nid}: coords[{i}]") for i, c in enumerate(coords))
        nodes.append(FrameNode(nid, tuple(values)))

    members = []
    for raw in _container(doc, "members", str(path), list):
        mid = _require(raw, "id", "member", int)
        members.append(
            FrameMember(
                mid,
                _require(raw, "a", f"member {mid}", int),
                _require(raw, "b", f"member {mid}", int),
                str(_require(raw, "section", f"member {mid}")),
            )
        )

    supports = []
    for raw in _container(doc, "supports", str(path), list):
        node = _require(raw, "node", "support", int)
        kind = raw.get("kind", "fixed")
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
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if _require(doc, "format_version", str(path)) != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version")
    loads = []
    for raw in _container(doc, "loads", str(path), list):
        node = _require(raw, "node", "load", int)
        fx, fy, mz = (
            _number(raw.get(k, 0.0), float, f"load on node {node}: field '{k}'")
            for k in ("fx", "fy", "mz")
        )
        loads.append((node, fx, fy, mz))
    return loads


def write_load_case(loads: list[tuple[int, float, float, float]], path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "loads": [
            {"node": n, "fx": fx, "fy": fy, "mz": mz} for n, fx, fy, mz in loads
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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
    if stories < 1 or spans < 1:
        raise ModelError("stories and spans must be >= 1")

    def node_id(i: int, level: int) -> int:
        return level * (spans + 1) + i + 1

    nodes = [
        FrameNode(node_id(i, level), (i * bay, level * height))
        for level in range(stories + 1)
        for i in range(spans + 1)
    ]
    members = []
    mid = 0
    for story in range(1, stories + 1):
        for i in range(spans + 1):
            mid += 1
            members.append(
                FrameMember(
                    mid,
                    node_id(i, story - 1),
                    node_id(i, story),
                    _section_for(pattern, False, story, i),
                )
            )
        for i in range(spans):
            mid += 1
            members.append(
                FrameMember(
                    mid,
                    node_id(i, story),
                    node_id(i + 1, story),
                    _section_for(pattern, True, story, i),
                )
            )
    supports = [node_id(i, 0) for i in range(spans + 1)]
    sections = {"light": LIGHT_SECTION, "heavy": HEAVY_SECTION}
    return StructuralModel(nodes, members, sections, supports, ndim=2)


def generate_grid3d(
    stories: int,
    spans_x: int,
    spans_y: int,
    bay: float = 3.0,
    height: float = 3.0,
    pattern: str = "homogeneous",
) -> StructuralModel:
    """Rectangular space frame with fixed bases (combinatorial use only)."""
    if stories < 1 or spans_x < 1 or spans_y < 1:
        raise ModelError("stories and spans must be >= 1")
    per_level = (spans_x + 1) * (spans_y + 1)

    def node_id(ix: int, iy: int, level: int) -> int:
        return level * per_level + iy * (spans_x + 1) + ix + 1

    nodes = [
        FrameNode(node_id(ix, iy, level), (ix * bay, iy * bay, level * height))
        for level in range(stories + 1)
        for iy in range(spans_y + 1)
        for ix in range(spans_x + 1)
    ]
    members = []
    mid = 0
    for story in range(1, stories + 1):
        for iy in range(spans_y + 1):
            for ix in range(spans_x + 1):
                mid += 1
                members.append(
                    FrameMember(
                        mid,
                        node_id(ix, iy, story - 1),
                        node_id(ix, iy, story),
                        _section_for(pattern, False, story, ix + iy),
                    )
                )
        for iy in range(spans_y + 1):
            for ix in range(spans_x):
                mid += 1
                members.append(
                    FrameMember(
                        mid,
                        node_id(ix, iy, story),
                        node_id(ix + 1, iy, story),
                        _section_for(pattern, True, story, ix + iy),
                    )
                )
        for iy in range(spans_y):
            for ix in range(spans_x + 1):
                mid += 1
                members.append(
                    FrameMember(
                        mid,
                        node_id(ix, iy, story),
                        node_id(ix, iy + 1, story),
                        _section_for(pattern, True, story, ix + iy),
                    )
                )
    supports = [node_id(ix, iy, 0) for iy in range(spans_y + 1) for ix in range(spans_x + 1)]
    sections = {"light": LIGHT_SECTION, "heavy": HEAVY_SECTION}
    return StructuralModel(nodes, members, sections, supports, ndim=3)
