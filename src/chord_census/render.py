"""Static SVG picture of a color diagram.

Points are numbered clockwise starting at the top, matching the package's
numbering convention.  Arcs follow the fixed pattern (black arcs drawn
black, white arcs white on a light background so both read), chords are
straight segments.  Output bytes are deterministic for a given diagram:
coordinates use fixed two-decimal formatting and elements are emitted in
index order.
"""

from __future__ import annotations

import functools
import math

from .diagram import DiagramLike, _gluing_of

__all__ = ["render_svg"]

_SIZE = 440
_RADIUS = 170
_LABEL_RADIUS = 196
_FRAME_CACHE_ORDERS = 64  # point counts whose frame render_svg keeps


def _point(i: int, pts: int, radius: float = _RADIUS) -> tuple[float, float]:
    """Screen position of point i at ``radius``: clockwise from 12 o'clock."""
    angle = 2.0 * math.pi * (i - 1) / pts
    c = _SIZE / 2.0
    return (c + radius * math.sin(angle), c - radius * math.cos(angle))


def _fmt(x: float) -> str:
    return f"{x + 0.0:.2f}"  # +0.0 folds -0.0 into 0.0


@functools.lru_cache(maxsize=_FRAME_CACHE_ORDERS)
def _frame(pts: int) -> tuple[str, tuple[tuple[str, str], ...], str]:
    """Everything of a picture with ``pts`` points except its chords: the
    text before the chord lines, the formatted point positions, and the
    text after them."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#d9d9d9"/>',
    ]
    xy = tuple(tuple(map(_fmt, _point(i, pts))) for i in range(1, pts + 1))

    # circle arcs, clockwise span (i, i+1); odd i black
    for i in range(1, pts + 1):
        x1, y1 = xy[i - 1]
        x2, y2 = xy[i % pts]
        color = "#000000" if i % 2 == 1 else "#ffffff"
        large = 1 if pts == 2 else 0  # two points means each arc is a half turn
        head.append(
            f'<path d="M {x1} {y1} '
            f'A {_RADIUS} {_RADIUS} 0 {large} 1 {x2} {y2}" '
            f'fill="none" stroke="{color}" stroke-width="8"/>'
        )

    tail = []
    for i in range(1, pts + 1):
        x, y = xy[i - 1]
        tail.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#bb3333"/>')
        lx, ly = map(_fmt, _point(i, pts, _LABEL_RADIUS))
        tail.append(
            f'<text x="{lx}" y="{ly}" font-family="monospace" '
            f'font-size="14" text-anchor="middle" dominant-baseline="middle">'
            f"{i}</text>"
        )
    tail.append("</svg>\n")
    return "\n".join(head), xy, "\n".join(tail)


def render_svg(d: DiagramLike) -> str:
    """Render a diagram as a standalone SVG document string.

    Only the chord lines are formatted per call.  The rest of the picture
    depends only on the number of points and comes from a least-recently-used
    cache of the frames of the last 64 orders.  A frame takes under 55 kB
    for n <= 60, so all 60 such orders together take about 1.7 MB.  Inputs
    that cycle through more than 64 orders miss on every call.
    """
    g = _gluing_of(d)
    head, xy, tail = _frame(g.points)
    out = [head]
    for a, b in g.chords:
        x1, y1 = xy[a - 1]
        x2, y2 = xy[b - 1]
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" '
            f'y2="{y2}" stroke="#4a6a8a" stroke-width="2"/>'
        )
    out.append(tail)
    return "\n".join(out)
