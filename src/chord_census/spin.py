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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .diagram import ColorDiagram, DiagramLike, _gluing_of, normalize
from .errors import InvalidSpinError

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

        loop_ends = [x for pair in self.loops for x in pair]
        if len(self.loops) != m // 2 or len(loop_ends) != m or set(loop_ends) != labels:
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
                    f"cyclic order breaks sector alternation between {u!r} and {v!r}"
                )
            if partner[v] != u:
                raise InvalidSpinError(f"{name} partnership at {v!r} not mutual")

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
    :class:`InvalidSpinError` on malformed input.
    """
    s.validate()
    order = s.cyclic_order
    if not s.sector_colors_start_black():
        order = order[1:] + order[:1]
    index = {label: i + 1 for i, label in enumerate(order)}
    chords = [(index[a], index[b]) for a, b in s.loops]
    return ColorDiagram(normalize(chords))


def spin_graph_isomorphic(s1: SpinGraph, s2: SpinGraph) -> bool:
    """Orientation-preserving isomorphism test.

    Tries every rotation of the cyclic order; the induced relabeling must
    send loops to loops and preserve both spin colors.  Color preservation
    automatically restricts to rotations aligning sector colors.

    Loops are checked on positions in the cyclic orders, so a rotation is
    rejected at the first loop of s1 whose image is not a loop of s2; the
    relabeling is built only for rotations that pass.
    """
    s1.validate()
    s2.validate()
    m = len(s1.cyclic_order)
    if m != len(s2.cyclic_order):
        return False
    o1, o2 = s1.cyclic_order, s2.cyclic_order
    pos1 = {label: t for t, label in enumerate(o1)}
    pos2 = {label: t for t, label in enumerate(o2)}
    mate2 = [0] * m
    for a, b in s2.loops:
        mate2[pos2[a]], mate2[pos2[b]] = pos2[b], pos2[a]
    loops1 = [(pos1[a], pos1[b]) for a, b in s1.loops]
    for r in range(m):
        if any(mate2[(a + r) % m] != (b + r) % m for a, b in loops1):
            continue
        phi = {o1[t]: o2[(t + r) % m] for t in range(m)}
        if all(
            phi[s1.black_partner[h]] == s2.black_partner[phi[h]]
            and phi[s1.white_partner[h]] == s2.white_partner[phi[h]]
            for h in o1
        ):
            return True
    return False
