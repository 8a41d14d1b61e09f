"""Spin graphs with one vertex and their correspondence with color diagrams.

A spin graph here has a single vertex with 2n half-edges.  Three pieces of
data live on the half-edges:

* ``cyclic_order`` - their arrangement around the vertex;
* ``loops`` - a pairing of half-edges into the n loop edges of the graph;
* a spin - for every half-edge, one black partner and one white partner,
  each partnership shared by exactly two half-edges, such that following
  black and white partners alternately walks through all 2n half-edges in
  one closed run.

The alternating run is the cyclic order itself: consecutive half-edges
around the vertex bound a sector, and the spin colors that sector.  The
correspondence with diagrams reads the half-edges around the vertex as the
circle points (a rotation is chosen so the first sector is black, matching
the fixed pattern), and the loops as the chords.  Both directions compose
to the identity on diagrams; on spin graphs the round trip returns an
isomorphic relabeling.

Spin graphs are thus another encoding of color diagrams, and spin graph
isomorphism is diagram isomorphism: :func:`spin_graph_isomorphic` compares
the canonical forms of the two diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .diagram import ColorDiagram, DiagramLike, _gluing_of, _sorted_gluing, isomorphic
from .errors import InvalidSpinError, _shown

__all__ = [
    "SpinGraph",
    "diagram_to_spin_graph",
    "spin_graph_to_diagram",
    "spin_graph_isomorphic",
]

Label = Hashable


@dataclass(frozen=True)
class SpinGraph:
    """One-vertex spin graph on arbitrary hashable half-edge labels."""

    cyclic_order: tuple[Label, ...]
    loops: tuple[tuple[Label, Label], ...]
    black_partner: Mapping[Label, Label]
    white_partner: Mapping[Label, Label]

    @property
    def n(self) -> int:
        return len(self.cyclic_order) // 2

    def validate(self) -> None:
        """Raise :class:`InvalidSpinError` unless all spin rules hold.

        The cyclic order must realize the spin: consecutive half-edges are
        partners of one color, the colors alternating sector by sector.
        Checking each sector's partnership both ways, with both partner
        maps covering exactly the half-edges, also settles the other rules:
        every half-edge's partners are its two distinct neighbours (one
        neighbour when 2n = 2), and the alternating run is the cyclic
        order, closed with length 2n.
        """
        order = self.cyclic_order
        m = len(order)
        labels = set(order)
        if m == 0 or m % 2 != 0:
            raise InvalidSpinError(f"need 2n half-edges, got {m}")
        if len(labels) != m:
            raise InvalidSpinError("cyclic order repeats a half-edge")

        try:
            loop_ends = [x for a, b in self.loops for x in (a, b)]
            paired = len(loop_ends) == m and set(loop_ends) == labels
        except (TypeError, ValueError):  # a loop that is not a pair of labels
            paired = False
        if not paired:
            raise InvalidSpinError("loops must pair up all half-edges exactly once")

        colors = [("black", self.black_partner), ("white", self.white_partner)]
        for name, partner in colors:
            if partner.keys() != labels:
                raise InvalidSpinError(f"{name} partners must cover all half-edges")

        if not self.sector_colors_start_black():
            colors.reverse()
        for t in range(m):
            u, v = order[t], order[(t + 1) % m]
            name, partner = colors[t % 2]
            if partner[u] != v:
                raise InvalidSpinError(
                    f"cyclic order breaks sector alternation between {_shown(u)} and {_shown(v)}"
                )
            if partner[v] != u:
                raise InvalidSpinError(f"{name} partnership at {_shown(v)} not mutual")

    def sector_colors_start_black(self) -> bool:
        """Whether the sector after ``cyclic_order[0]`` is black."""
        return self.black_partner[self.cyclic_order[0]] == self.cyclic_order[1]


def diagram_to_spin_graph(d: DiagramLike) -> SpinGraph:
    """Spin graph of a diagram: points become half-edges, chords become loops.

    Half-edge i sits at circle point i; the sector between i and i+1 is the
    arc (i, i+1), black for odd i.
    """
    g = _gluing_of(d)
    pts = g.points
    black: dict[int, int] = {}
    white: dict[int, int] = {}
    for i in range(1, pts + 1):
        succ = i % pts + 1
        pred = (i - 2) % pts + 1
        if i % 2 == 1:
            black[i], white[i] = succ, pred
        else:
            black[i], white[i] = pred, succ
    return SpinGraph(
        cyclic_order=tuple(range(1, pts + 1)),
        loops=g.chords,
        black_partner=black,
        white_partner=white,
    )


def spin_graph_to_diagram(s: SpinGraph) -> ColorDiagram:
    """Diagram of a spin graph (inverse of :func:`diagram_to_spin_graph`).

    The cyclic order is rotated so the first sector is black, half-edges are
    renumbered 1..2n in that order, and loops become chords.  Raises
    :class:`InvalidSpinError` on malformed input; once validation has shown
    that the loops pair the 2n half-edges exactly once, the chords need only
    sorting into normal form.
    """
    s.validate()
    order = s.cyclic_order
    if not s.sector_colors_start_black():
        order = order[1:] + order[:1]
    index = {label: i + 1 for i, label in enumerate(order)}
    return ColorDiagram(_sorted_gluing((index[a], index[b]) for a, b in s.loops))


def spin_graph_isomorphic(s1: SpinGraph, s2: SpinGraph) -> bool:
    """Orientation-preserving isomorphism test: is there a rotation of the
    cyclic order that sends loops to loops and keeps both spin colors?

    Once :meth:`SpinGraph.validate` passes, the spin is fixed by the cyclic
    order and the color of the first sector, so a rotation keeps both spin
    colors exactly when it keeps sector colors.  :func:`spin_graph_to_diagram`
    starts each order on a black sector, so those rotations are the even
    ones and the test is :func:`isomorphic` on the two diagrams.  Graphs of
    different sizes are not isomorphic.
    """
    d1, d2 = spin_graph_to_diagram(s1), spin_graph_to_diagram(s2)
    return d1.n == d2.n and isomorphic(d1, d2)
