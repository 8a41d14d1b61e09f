"""Gluings and color chord diagrams over the fixed two-colored pattern.

Conventions used throughout the package:

* Points ``1..2n`` sit clockwise on a circle.  The circle arcs
  ``(1,2), (3,4), ..., (2n-1,2n)`` are black and the arcs
  ``(2,3), (4,5), ..., (2n,1)`` are white.  The coloring is a pure function
  of the endpoint parities; :func:`_arc_pairings` turns it into the two
  pairings of points that the arcs make, cached once per point count.
* A gluing is a perfect matching of ``{1..2n}`` into n chords, kept in
  normal form: chords ``(a_i, b_i)`` with ``a_1 = 1``, ``a_i < b_i`` and
  ``a_1 < a_2 < ... < a_n``.  Every matching has exactly one normal form.
* Rotation by k sends every index d to ``d + k (mod 2n)`` with residue 0
  written as 2n, then renormalizes.  Color diagrams are isomorphic exactly
  when related by an even rotation; the even rotations form a group of
  order n.
* The span word of a gluing lists each point's clockwise span
  ``(partner - point) mod 2n``, points ``1..2n`` in order.  Rotating by k
  shifts it cyclically by k, and span words order gluings as their
  flattened normal forms do: where two words first differ, at point i, the
  equal prefix has fixed the chords before i and left i unmatched, so i
  opens the next chord in both and the greater span is the greater partner.
  :func:`rotate`, :func:`canonical_form`, :func:`isomorphic` and the census
  work on span words.

All values are immutable; every function here is pure and safe to share
between threads or processes.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    DuplicateIndexError,
    GluingParseError,
    InvalidGluingError,
    MissingIndexError,
    SelfPairError,
    SizeMismatchError,
    _index,
    _integer,
    _shown,
)

__all__ = [
    "Gluing",
    "ColorDiagram",
    "DiagramClass",
    "normalize",
    "classify",
    "rotate",
    "canonical_form",
    "isomorphic",
    "recolor_shift",
]


class DiagramClass(str, Enum):
    """Three-way selector: O-diagrams, N-diagrams, or everything."""

    O = "o"
    N = "n"
    ALL = "all"


class Gluing(NamedTuple):
    """A perfect matching of ``{1..2n}`` in normal form.

    Construct through :func:`normalize`, :meth:`parse` or :meth:`from_json`;
    the raw constructor does not validate.
    """

    chords: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.chords)

    @property
    def points(self) -> int:
        return 2 * len(self.chords)

    def partner_map(self) -> list[int]:
        """Partner lookup table ``m`` with ``m[i]`` the partner of point i.

        Index 0 is unused padding so that points index directly.
        """
        m = [0] * (self.points + 1)
        for a, b in self.chords:
            m[a] = b
            m[b] = a
        return m

    def flattened(self) -> tuple[int, ...]:
        """The sequence ``(a_1, b_1, a_2, b_2, ...)`` used for comparisons."""
        return tuple(x for chord in self.chords for x in chord)

    @classmethod
    def parse(cls, text: str) -> "Gluing":
        """Parse the ``(a,b)(a,b)...`` text form (whitespace tolerated)."""
        if not re.fullmatch(r"(?:\s*\(\s*\d+\s*,\s*\d+\s*\))+\s*", text or ""):
            raise GluingParseError(f"not a gluing: {_shown(text)}")
        try:
            pairs = [
                (int(a), int(b))
                for a, b in re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", text)
            ]
        except ValueError as exc:  # a point past the int-to-str digit limit
            raise GluingParseError(f"not a gluing: {exc}") from None
        return normalize(pairs)

    @classmethod
    def from_json(cls, obj: Union[str, dict]) -> "Gluing":
        """Parse the ``{"n": ..., "chords": [[a,b], ...]}`` JSON form."""
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
                raise GluingParseError(f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or "chords" not in obj:
            raise GluingParseError("JSON gluing must be an object with 'chords'")
        chords = obj["chords"]
        if not isinstance(chords, list) or not all(
            isinstance(c, (list, tuple)) and len(c) == 2 and all(type(x) is int for x in c)
            for c in chords
        ):
            raise GluingParseError("'chords' must be a list of integer index pairs")
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != len(chords)):
            raise GluingParseError(
                f"declared n must be the integer {len(chords)}, got {_shown(obj['n'])}"
            )
        return normalize([(a, b) for a, b in chords])

    def text(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.chords)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "chords": [list(c) for c in self.chords]}

    def __str__(self) -> str:
        return self.text()


# Gluing from a 1-tuple ``(chords,)`` already in normal form: the same
# instance the class call builds, without its Python-level ``__new__``.
_trusted_gluing = functools.partial(tuple.__new__, Gluing)


def _sorted_gluing(pairs: Iterable[tuple[int, int]]) -> Gluing:
    """Normal form of pairs already known to partition ``{1..2n}``."""
    return _trusted_gluing((tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs)),))


@dataclass(frozen=True)
class ColorDiagram:
    """A gluing read against the fixed pattern coloring.

    The pattern is implicit, so this is a thin semantic wrapper; it exists
    so that signatures distinguish "matching" from "matching plus colors".
    """

    gluing: Gluing

    @property
    def n(self) -> int:
        return self.gluing.n

    @classmethod
    def parse(cls, text: str) -> "ColorDiagram":
        return cls(Gluing.parse(text))

    def diagram_class(self) -> DiagramClass:
        return classify(self)

    def __str__(self) -> str:
        return self.gluing.text()


DiagramLike = Union[Gluing, ColorDiagram]


def _gluing_of(d: DiagramLike) -> Gluing:
    return d.gluing if isinstance(d, ColorDiagram) else d


def normalize(pairs: Iterable[tuple[int, int]]) -> Gluing:
    """Return the unique normal-form gluing for a set of point pairs.

    The pairs must partition ``{1..2n}`` where n >= 1 is the number of
    pairs.  Raises :class:`InvalidGluingError` for no pairs, a pair of
    other than two points or points that are not integers (bools are not),
    and :class:`SelfPairError`, :class:`DuplicateIndexError` or
    :class:`MissingIndexError` otherwise.
    Idempotent on normal input.
    """
    try:
        pair_list = [(_index(a), _index(b)) for a, b in pairs]
    except (TypeError, ValueError):  # a point not an integer, a pair not of two
        raise InvalidGluingError("a gluing needs pairs of integer points") from None
    n = len(pair_list)
    if n == 0:
        raise InvalidGluingError("a gluing needs at least one pair")
    pts = 2 * n
    seen: set[int] = set()
    for a, b in pair_list:
        if a == b:
            raise SelfPairError(f"pair ({_shown(a)},{_shown(b)}) joins a point to itself")
        for x in (a, b):
            if x in seen:
                raise DuplicateIndexError(f"point {_shown(x)} appears more than once")
            seen.add(x)
    expected = set(range(1, pts + 1))
    if seen != expected:
        missing = sorted(expected - seen)
        stray = sorted(seen - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if stray:
            detail.append(f"outside 1..{pts}: [{', '.join(map(_shown, stray))}]")
        raise MissingIndexError(
            f"pairs do not partition 1..{pts} ({'; '.join(detail)})"
        )
    return _sorted_gluing(pair_list)


# Point counts whose arc pairings _arc_pairings keeps: the stream benchmark's
# sample reads 41 orders and its exhaustive pass one more, a CLI process one.
_ARC_CACHE_ORDERS = 64


@functools.lru_cache(maxsize=_ARC_CACHE_ORDERS)
def _arc_pairings(pts: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The black and the white arc partner of every point of ``pts``.

    Entry i of each tuple is the other end of point i's arc of that color;
    index 0 is unused padding, as in :meth:`Gluing.partner_map`.  Black arcs
    join odd i to i + 1 and white arcs even i to i + 1, with 2n joined to 1.
    This is the one place that says which points an arc joins.  An entry
    holds 2(2n+1) ints, and the tuples cannot be changed by a caller.
    """
    black = [0] + [i + 1 if i % 2 else i - 1 for i in range(1, pts + 1)]
    white = [0] + [(i - 2) % pts + 1 if i % 2 else i % pts + 1 for i in range(1, pts + 1)]
    return tuple(black), tuple(white)


def classify(d: DiagramLike) -> DiagramClass:
    """O when every chord joins an odd point to an even point, else N.

    Endpoint parity differences survive any rotation (both ends shift
    together), so the class is rotation invariant.
    """
    g = _gluing_of(d)
    if all((a + b) % 2 == 1 for a, b in g.chords):
        return DiagramClass.O
    return DiagramClass.N


def _span_word(g: Gluing) -> list[int]:
    """The span word of ``g``: entry i is point i + 1's clockwise span."""
    pts = g.points
    word = [0] * pts
    for a, b in g.chords:
        word[a - 1] = b - a
        word[b - 1] = pts + a - b
    return word


def _span_chords(word: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The normal-form chords of a span word: point i opens the chord to
    i + s exactly when its span s does not wrap, i + s <= 2n."""
    pts = len(word)
    return tuple([(i, i + s) for i, s in enumerate(word, 1) if i + s <= pts])


def _least_word(g: Gluing) -> list[int]:
    """The least span word among the even rotations of ``g``: each starts on
    an odd point's span, so only those starting on the least are compared."""
    word = _span_word(g)
    least = min(word[::2])
    return min(word[e:] + word[:e] for e in range(0, len(word), 2) if word[e] == least)


def rotate(g: Gluing, k: int) -> Gluing:
    """Rotate a gluing by k steps: every index d goes to ``d+k mod 2n``.

    The residue 0 is written as 2n.  Requires an integer ``1 <= k <= 2n``;
    ``rotate(g, 2n)`` is the identity.
    """
    k = _integer(k, "rotation shift", 1, g.points)
    word = _span_word(g)
    return _trusted_gluing((_span_chords(word[-k:] + word[:-k]),))


def canonical_form(d: DiagramLike) -> Gluing:
    """Orbit representative under even rotations: the least gluing
    (flattened-sequence order) among ``rotate(g, 2m)`` for ``m = 1..n``,
    decoded from the least span word.  Two diagrams are isomorphic exactly
    when their canonical forms coincide."""
    return _trusted_gluing((_span_chords(_least_word(_gluing_of(d))),))


def isomorphic(d1: DiagramLike, d2: DiagramLike) -> bool:
    """Whether some even rotation carries d1 onto d2."""
    g1, g2 = _gluing_of(d1), _gluing_of(d2)
    if g1.n != g2.n:
        raise SizeMismatchError(f"cannot compare n={g1.n} with n={g2.n}")
    return _least_word(g1) == _least_word(g2)


def recolor_shift(d: DiagramLike) -> DiagramLike:
    """Rotate by one step: the same picture with its two colors swapped.

    Re-reading the shifted gluing against the fixed pattern is what makes
    a single pattern coloring lose no isomorphism classes.  Applied 2n
    times it is the identity.  The result lives in the same fixed-pattern
    universe; odd shifts are not diagram isomorphisms.
    """
    g = _gluing_of(d)
    shifted = rotate(g, 1)
    if isinstance(d, ColorDiagram):
        return ColorDiagram(shifted)
    return shifted
