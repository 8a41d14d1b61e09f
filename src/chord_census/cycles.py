"""Boundary cycles of a color diagram and the topology of its expansion.

The expansion of a diagram is the surface built from one disk (the circle
with its 2n marked points) plus one band per chord.  A band whose chord
joins two points of equal parity is glued with a half twist; that is what
makes N-diagrams non-orientable.  The surface boundary splits into
monochromatic circles: each circle alternates circle arcs of one color with
band sides, and we call them b-cycles and w-cycles.

A circle of one color is one orbit of two pairings of the points: the
chords, and that color's arcs.  Enter an arc at x and leave at its other
end y, which is x + 1 when x has the color's parity (odd for black, even
for white) and x - 1 otherwise, mod 2n; then cross the chord at y and
enter the next arc.  The circle closes when the walk comes back to its
start.  An entry of the color's parity runs clockwise and any other
counterclockwise; a chord joining two points of equal parity changes the
entry parity, so the walk turns around the circle: the twisted band.  Each
new circle starts at the least-numbered unvisited arc of its color,
entered at that arc's id, so output is deterministic.

Both colors are traced by one integer walk over the partner list, which
records each circle as its exit points in walk order.
``trace_cycles`` decorates those lists into arc and chord steps;
``cycle_counts`` and ``surface_type`` only count them and build no steps.

An arc is identified by the endpoint whose parity matches its color: black
arcs by their odd endpoint, white arcs by their even endpoint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

from .diagram import DiagramClass, DiagramLike, classify, _gluing_of
from .errors import InconsistentTopologyError

__all__ = [
    "Color",
    "ArcStep",
    "ChordStep",
    "Cycle",
    "CycleDecomposition",
    "SurfaceType",
    "trace_cycles",
    "cycle_counts",
    "surface_type",
]


class Color(str, Enum):
    BLACK = "b"
    WHITE = "w"


class ArcStep(NamedTuple):
    """A circle arc traversed from ``start`` to ``end``."""

    start: int
    end: int
    color: Color

    @property
    def arc_id(self) -> int:
        """Identifying endpoint: odd end for black arcs, even end for white."""
        want = 1 if self.color is Color.BLACK else 0
        return self.start if self.start % 2 == want else self.end

    def text(self) -> str:
        return f"[{self.start},{self.end}]"


class ChordStep(NamedTuple):
    """A chord crossed from ``start`` to ``end``."""

    start: int
    end: int

    def text(self) -> str:
        return f"({self.start},{self.end})"


Step = Union[ArcStep, ChordStep]


@dataclass(frozen=True)
class Cycle:
    """One boundary circle: alternating arc, chord, arc, chord, ..."""

    color: Color
    steps: tuple[Step, ...]

    def arcs(self) -> tuple[ArcStep, ...]:
        return tuple(s for s in self.steps if isinstance(s, ArcStep))

    def chords(self) -> tuple[ChordStep, ...]:
        return tuple(s for s in self.steps if isinstance(s, ChordStep))

    def arc_ids(self) -> frozenset[int]:
        return frozenset(a.arc_id for a in self.arcs())

    def text(self) -> str:
        return "".join(s.text() for s in self.steps)

    def to_json_dict(self) -> dict:
        out = []
        for s in self.steps:
            if isinstance(s, ArcStep):
                out.append(
                    {"type": "arc", "from": s.start, "to": s.end, "color": s.color.value}
                )
            else:
                out.append({"type": "chord", "from": s.start, "to": s.end})
        return {"color": self.color.value, "steps": out}


@dataclass(frozen=True)
class CycleDecomposition:
    """All boundary cycles of a diagram, black and white."""

    b_cycles: tuple[Cycle, ...]
    w_cycles: tuple[Cycle, ...]

    @property
    def counts(self) -> tuple[int, int]:
        return (len(self.b_cycles), len(self.w_cycles))

    @property
    def total(self) -> int:
        return len(self.b_cycles) + len(self.w_cycles)

    def text(self) -> str:
        lines = []
        for i, c in enumerate(self.b_cycles, 1):
            lines.append(f"Cb{i}={c.text()}")
        for i, c in enumerate(self.w_cycles, 1):
            lines.append(f"Cw{i}={c.text()}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "b_cycles": [c.to_json_dict() for c in self.b_cycles],
            "w_cycles": [c.to_json_dict() for c in self.w_cycles],
            "lambda_b": len(self.b_cycles),
            "lambda_w": len(self.w_cycles),
            "lambda_total": self.total,
        }


@dataclass(frozen=True)
class SurfaceType:
    """Topological type of the expansion surface.

    ``genus`` is the orientable genus when ``orientable`` and the cross-cap
    number otherwise.
    """

    orientable: bool
    boundary_components: int
    euler_characteristic: int
    genus: int


def _boundary_walk(
    partner: list[int], pts: int
) -> tuple[list[list[int]], list[list[int]]]:
    """The b-cycles and the w-cycles, each as its exit points in walk order.

    Black arcs have odd ids and white arcs even ids, so one visited table
    serves both colors.
    """
    visited = bytearray(pts + 1)
    b_cycles: list[list[int]] = []
    w_cycles: list[list[int]] = []
    for s0 in range(1, pts + 1):
        if visited[s0]:
            continue
        parity = s0 & 1  # the color's parity: 1 black, 0 white
        exits = []
        x = s0
        while True:
            if x & 1 == parity:  # the arc's id is x, its other end x + 1
                arc = x
                y = x % pts + 1
            else:  # the arc's id is its other end x - 1, or 2n when x = 1
                arc = y = x - 1 or pts
            if visited[arc]:
                raise AssertionError("arc revisited before cycle closed")
            visited[arc] = 1
            exits.append(y)
            x = partner[y]
            if x == s0:
                break
        (b_cycles if parity else w_cycles).append(exits)
    return b_cycles, w_cycles


# Steps are built by tuple.__new__ from their field tuples, skipping the
# NamedTuple constructor's Python-level argument handling.
_arc_step = functools.partial(tuple.__new__, ArcStep)
_chord_step = functools.partial(tuple.__new__, ChordStep)


def _decorate(exits: list[int], color: Color, partner: list[int]) -> Cycle:
    """A circle's steps from its exit points: the first arc is entered
    across the chord at the last exit."""
    steps: list[Step] = []
    enter = partner[exits[-1]]
    for y in exits:
        steps.append(_arc_step((enter, y, color)))
        enter = partner[y]
        steps.append(_chord_step((y, enter)))
    return Cycle(color, tuple(steps))


def trace_cycles(d: DiagramLike) -> CycleDecomposition:
    """Complete b/w boundary cycle decomposition of a diagram.

    Every black arc lands in exactly one b-cycle and every white arc in
    exactly one w-cycle; cycles alternate arcs and chords and close up.
    """
    g = _gluing_of(d)
    partner = g.partner_map()
    b_cycles, w_cycles = _boundary_walk(partner, g.points)
    return CycleDecomposition(
        b_cycles=tuple(_decorate(c, Color.BLACK, partner) for c in b_cycles),
        w_cycles=tuple(_decorate(c, Color.WHITE, partner) for c in w_cycles),
    )


def cycle_counts(d: DiagramLike) -> tuple[int, int]:
    """The pair (number of b-cycles, number of w-cycles)."""
    g = _gluing_of(d)
    b_cycles, w_cycles = _boundary_walk(g.partner_map(), g.points)
    return (len(b_cycles), len(w_cycles))


def surface_type(d: DiagramLike) -> SurfaceType:
    """Orientability, boundary count, Euler characteristic and genus.

    The expansion deformation-retracts onto one disk with n bands, so
    ``chi = 1 - n`` always.  The boundary count is the total number of
    b/w-cycles, orientability is the O/N class, and the genus solves the
    classification equation ``chi = 2 - 2g - b`` (orientable) or
    ``chi = 2 - k - b`` (non-orientable, k cross-caps).
    """
    g = _gluing_of(d)
    boundary = sum(map(len, _boundary_walk(g.partner_map(), g.points)))
    chi = 1 - g.n
    orientable = classify(g) is DiagramClass.O
    if orientable:
        twice_genus = 2 - boundary - chi
        if twice_genus < 0 or twice_genus % 2 != 0:
            raise InconsistentTopologyError(
                f"no orientable genus for chi={chi}, boundary={boundary}"
            )
        genus = twice_genus // 2
    else:
        genus = 2 - boundary - chi
        if genus < 1:
            raise InconsistentTopologyError(
                f"no cross-cap count for chi={chi}, boundary={boundary}"
            )
    return SurfaceType(
        orientable=orientable,
        boundary_components=boundary,
        euler_characteristic=chi,
        genus=genus,
    )
