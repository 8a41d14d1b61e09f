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

from collections.abc import Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .diagram import ColorDiagram, DiagramLike, isomorphic
from .diagram import _arc_pairings, _gluing_of, _sorted_gluing
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

    def __post_init__(self) -> None:
        # loops that can be read only once are stored as their tuple, so
        # every call reads the same loops; every other value stays as given
        if isinstance(self.loops, Iterator):
            object.__setattr__(self, "loops", tuple(self.loops))

    @property
    def n(self) -> int:
        return len(self.cyclic_order) // 2

    def validate(self) -> None:
        """Raise :class:`InvalidSpinError` unless all spin rules hold.

        First the structure: a cyclic order of 2n distinct hashable
        half-edges that is a sequence or a numpy array, read as a tuple (a
        set, mapping, mapping view, iterator or scalar has no order and is
        rejected), loops, an iterable of pairs (an iterator is stored as
        its tuple when the graph is built) that pair them all exactly
        once, and partner maps that are mappings covering
        exactly the half-edges.  Then the spin: read along the cyclic
        order, started on its black sector, the half-edges are the
        pattern's points 1..2n, and each partner map must be that color's
        arc pairing of them.  This also settles the other rules: every
        half-edge's partners are its two distinct neighbours (one neighbour
        when 2n = 2), each partnership is mutual, and alternating black and
        white partners runs once around the cyclic order, closed with
        length 2n.
        """
        self._black_first()

    def sector_colors_start_black(self) -> bool:
        """Whether the sector after ``cyclic_order[0]`` is black.

        Reads the graph as :meth:`validate` does, so it raises
        :class:`InvalidSpinError`, with the same message, for every graph
        that :meth:`validate` rejects.
        """
        order, _ = self._black_first()
        return bool(order[0] == self.cyclic_order[0])

    def _black_first(self) -> tuple[tuple[Label, ...], tuple[tuple[Label, Label], ...]]:
        """The cyclic order as a tuple started on its black sector, and the
        loops as a tuple of pairs.

        The one reader of a spin graph: it reads the loops once, so an
        iterator of them is read as a tuple would be, checks the structure,
        then the spin, and raises :class:`InvalidSpinError` naming the first
        fault.
        """
        order = self.cyclic_order
        # an order is a sequence or an array; a set, mapping, view, iterator or scalar has
        # none (tuple and dict come first in the checks: an ABC check alone costs more)
        if not (isinstance(order, (tuple, Sequence)) or getattr(order, "ndim", 0) > 0):
            raise InvalidSpinError(f"cyclic order must be a sequence, got {_shown(order)}")
        order = tuple(order)
        m = len(order)
        try:
            labels = set(order)
        except TypeError:  # an unhashable half-edge label
            raise InvalidSpinError("half-edge labels must be hashable") from None
        if m == 0 or m % 2 != 0:
            raise InvalidSpinError(f"need 2n half-edges, got {m}")
        if len(labels) != m:
            raise InvalidSpinError("cyclic order repeats a half-edge")

        try:
            loops = tuple((a, b) for a, b in self.loops)
            loop_ends = [x for loop in loops for x in loop]
            paired = len(loop_ends) == m and set(loop_ends) == labels
        except (TypeError, ValueError):  # a loop that is not a pair of labels
            paired = False
        if not paired:
            raise InvalidSpinError("loops must pair up all half-edges exactly once")

        colors = (("black", self.black_partner), ("white", self.white_partner))
        for name, partner in colors:
            if not isinstance(partner, (dict, Mapping)) or partner.keys() != labels:
                raise InvalidSpinError(f"{name} partners must cover all half-edges")

        if self.black_partner[order[0]] != order[1]:
            order = order[1:] + order[:1]
        for (name, partner), pairing in zip(colors, _arc_pairings(m)):
            for h, p in zip(order, pairing[1:]):
                if partner[h] != order[p - 1]:
                    raise InvalidSpinError(
                        f"{name} partner of {_shown(h)} is {_shown(partner[h])}, "
                        f"but the sectors require {_shown(order[p - 1])}"
                    )
        return order, loops


def diagram_to_spin_graph(d: DiagramLike) -> SpinGraph:
    """Spin graph of a diagram: points become half-edges, chords become loops.

    Half-edge i sits at circle point i, and its partners are its arc
    partners in the pattern: the sector between i and i+1 is the arc
    (i, i+1), black for odd i.
    """
    g = _gluing_of(d)
    points = tuple(range(1, g.points + 1))
    black, white = _arc_pairings(g.points)
    return SpinGraph(
        cyclic_order=points,
        loops=g.chords,
        black_partner=dict(zip(points, black[1:])),
        white_partner=dict(zip(points, white[1:])),
    )


def spin_graph_to_diagram(s: SpinGraph) -> ColorDiagram:
    """Diagram of a spin graph (inverse of :func:`diagram_to_spin_graph`).

    The cyclic order is rotated so the first sector is black, half-edges are
    renumbered 1..2n in that order, and loops become chords.  Raises
    :class:`InvalidSpinError` on malformed input; once the graph has been
    read as :meth:`SpinGraph.validate` reads it, the loops it read pair the
    2n half-edges exactly once, so the chords need only sorting into normal
    form.
    """
    order, loops = s._black_first()
    index = {label: i for i, label in enumerate(order, 1)}
    return ColorDiagram(_sorted_gluing((index[a], index[b]) for a, b in loops))


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
