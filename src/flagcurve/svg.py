"""Deterministic SVG rendering of curve models.

Points are drawn in the affine chart that normalizes the FIRST coordinate:
a point representative (x, z, y) maps to (y/x, z/x), so the canonical
point curve {z = 0} is the horizontal axis and a shear image {z = m1 x +
m2 y} is the straight line v = m1 + m2 u.  The chart's missing line is
handled by window clipping.  The dual panel applies the same chart to the
line covectors.

SVG is emitted as plain strings with fixed formatting: byte-identical for
identical inputs.
"""

from __future__ import annotations

import numpy as np

from .curve import CurveModel

# Samples drawn per panel at most; longer models are strided down to it.
MAX_MARKS = 2000

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _panel(rows: np.ndarray, window: float, size: int, offset_x: int,
           stroke: float, color: str, label: str) -> list:
    """One square panel of chart marks, polyline segments split at window
    exits and chart jumps."""
    out = [
        f'<g transform="translate({offset_x},0)">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="8" y="16" font-family="monospace" font-size="12">{label}</text>',
    ]
    x, z, y = rows[:, 0], rows[:, 1], rows[:, 2]
    ok = np.abs(x) > 1e-12
    u = np.where(ok, y / np.where(ok, x, 1.0), np.inf)
    v = np.where(ok, z / np.where(ok, x, 1.0), np.inf)
    inside = ok & (np.abs(u) <= window) & (np.abs(v) <= window)
    scale = size / (2.0 * window)
    px = (u + window) * scale
    py = (window - v) * scale
    segments = []
    current = []
    prev_u = prev_v = None
    for i in range(len(rows)):
        if not inside[i]:
            if len(current) > 1:
                segments.append(current)
            current = []
            prev_u = prev_v = None
            continue
        if prev_u is not None and (abs(u[i] - prev_u) > window or abs(v[i] - prev_v) > window):
            if len(current) > 1:
                segments.append(current)
            current = []
        current.append((px[i], py[i]))
        prev_u, prev_v = u[i], v[i]
    if len(current) > 1:
        segments.append(current)
    for seg in segments:
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in seg)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke}"/>'
        )
    if not segments:
        for i in np.nonzero(inside)[0][:512]:
            out.append(
                f'<circle cx="{_fmt(px[i])}" cy="{_fmt(py[i])}" r="{stroke}" '
                f'fill="{color}"/>'
            )
    out.append("</g>")
    return out


def render_model(
    model: CurveModel,
    chart: str = "both",
    width_px: int = 640,
    stroke: float = 1.2,
    window: float = 3.0,
) -> str:
    """Render the point curve and/or the dual line curve of a model."""
    if chart not in ("affine", "dual", "both"):
        raise ValueError("chart must be affine, dual, or both")
    stride = max(1, len(model) // MAX_MARKS)
    pts = model.points[::stride]
    lns = model.lines[::stride]
    panels = []
    if chart in ("affine", "both"):
        panels.append((pts, "point curve (z/x over y/x)", "#1f5fbf"))
    if chart in ("dual", "both"):
        panels.append((lns, "line curve (z/x over y/x, dual)", "#bf3f1f"))
    size = width_px
    total_w = size * len(panels)
    parts = [_HEADER.format(w=total_w, h=size)]
    for i, (rows, label, color) in enumerate(panels):
        parts.extend(_panel(rows, window, size, i * size, stroke, color, label))
    parts.append("</svg>\n")
    return "\n".join(parts)
