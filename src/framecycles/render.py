"""File renderings: sparsity patterns as PBM rasters, frames as SVG."""

from __future__ import annotations

from framecycles.basis import CycleBasis
from framecycles.model import ModelError, StructuralModel

_PALETTE = (
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a",
)


def render_sparsity(matrix, path) -> None:
    """Monochrome portable bitmap: one pixel per entry, black where it is nonzero."""
    import numpy as np

    pattern = np.atleast_2d(np.asarray(matrix)) != 0
    h, w = pattern.shape
    # Each row is its digits with a space after each but the last, then a newline.
    text = np.full((h, max(2 * w, 1)), ord(" "), dtype=np.uint8)
    text[:, : 2 * w : 2] = pattern + ord("0")
    text[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"P1\n{w} {h}\n".encode() + text.tobytes())


def render_frame(model: StructuralModel, basis: CycleBasis, path) -> None:
    """SVG of the frame: members, supports with their fictitious links, and
    each basis cycle traced in a distinct stroke."""
    if model.ndim != 2:
        raise ModelError("frame rendering is available for planar models only")
    xs = [n.coords[0] for n in model.nodes]
    ys = [n.coords[1] for n in model.nodes]
    margin = 0.15 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, x1 = min(xs) - margin, max(xs) + margin
    y0, y1 = min(ys) - margin, max(ys) + margin
    scale = 80.0
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def pt(coords):
        return (coords[0] - x0) * scale, (y1 - coords[1]) * scale

    def line(a, b, style):
        """A <line> from node *a* to node *b*, drawn in *style*."""
        ax, ay = pt(model.node(a).coords)
        bx, by = pt(model.node(b).coords)
        return f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" {style}/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    for m in model.members:
        parts.append(line(m.a, m.b, 'stroke="#333333" stroke-width="2"'))
    # Fictitious support links, drawn as the chain the ground merge stands for.
    supports = sorted(model.supports, key=lambda s: model.node(s).coords)
    for sa, sb in zip(supports, supports[1:]):
        parts.append(line(sa, sb, 'stroke="#d4b106" stroke-width="3" stroke-dasharray="6,4"'))
    for s in supports:
        sx, sy = pt(model.node(s).coords)
        parts.append(
            f'<rect x="{sx - 6:.2f}" y="{sy - 3:.2f}" width="12" height="6" '
            'fill="#d4b106"/>'
        )
    for i, cycle in enumerate(basis.cycles):
        color = _PALETTE[i % len(_PALETTE)]
        for mid in sorted(cycle.members):
            m = model.member(mid)
            parts.append(line(m.a, m.b, f'stroke="{color}" stroke-width="4" stroke-opacity="0.45"'))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
