"""Gluings and color chord diagrams over the fixed two-colored pattern.

Conventions used throughout the package:

* Points ``1..2n`` sit clockwise on a circle.  The circle arcs
  ``(1,2), (3,4), ..., (2n-1,2n)`` are black and the arcs
  ``(2,3), (4,5), ..., (2n,1)`` are white.  The coloring is a pure function
  of the endpoint parities and is never stored.
* A gluing is a perfect matching of ``{1..2n}`` into n chords, kept in
  normal form: chords ``(a_i, b_i)`` with ``a_1 = 1``, ``a_i < b_i`` and
  ``a_1 < a_2 < ... < a_n``.  Every matching has exactly one normal form.
* Rotation by k sends every index d to ``d + k (mod 2n)`` with residue 0
  written as 2n, then renormalizes.  Color diagrams are isomorphic exactly
  when related by an even rotation; the even rotations form a group of
  order n.

All values are immutable; every function here is pure and safe to share
between threads or processes.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Union

from .errors import (
    DuplicateIndexError,
    GluingParseError,
    InvalidArgumentError,
    InvalidGluingError,
    MissingIndexError,
    SelfPairError,
    SizeMismatchError,
    _integer,
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
            raise GluingParseError(f"not a gluing: {text!r}")
        pairs = [
            (int(a), int(b))
            for a, b in re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", text)
        ]
        return normalize(pairs)

    @classmethod
    def from_json(cls, obj: Union[str, dict]) -> "Gluing":
        """Parse the ``{"n": ..., "chords": [[a,b], ...]}`` JSON form."""
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise GluingParseError(f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or "chords" not in obj:
            raise GluingParseError("JSON gluing must be an object with 'chords'")
        chords = obj["chords"]
        if not isinstance(chords, list) or not all(
            isinstance(c, (list, tuple)) and len(c) == 2 and all(type(x) is int for x in c)
            for c in chords
        ):
            raise GluingParseError("'chords' must be a list of integer index pairs")
        if "n" in obj and obj["n"] != len(chords):
            raise GluingParseError(
                f"declared n={obj['n']} but {len(chords)} chords given"
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
    other than two points or points that are not integers, and
    :class:`SelfPairError`, :class:`DuplicateIndexError` or
    :class:`MissingIndexError` otherwise.
    Idempotent on normal input.
    """
    try:
        pair_list = [(operator.index(a), operator.index(b)) for a, b in pairs]
    except (TypeError, ValueError):  # a point not an integer, a pair not of two
        raise InvalidGluingError("a gluing needs pairs of integer points") from None
    n = len(pair_list)
    if n == 0:
        raise InvalidGluingError("a gluing needs at least one pair")
    pts = 2 * n
    seen: set[int] = set()
    for a, b in pair_list:
        if a == b:
            raise SelfPairError(f"pair ({a},{b}) joins a point to itself")
        for x in (a, b):
            if x in seen:
                raise DuplicateIndexError(f"point {x} appears more than once")
            seen.add(x)
    expected = set(range(1, pts + 1))
    if seen != expected:
        missing = sorted(expected - seen)
        stray = sorted(seen - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if stray:
            detail.append(f"outside 1..{pts}: {stray}")
        raise MissingIndexError(
            f"pairs do not partition 1..{pts} ({'; '.join(detail)})"
        )
    return _sorted_gluing(pair_list)


def classify(d: DiagramLike) -> DiagramClass:
    """O when every chord joins an odd point to an even point, else N.

    Endpoint parity differences survive any rotation (both ends shift
    together), so the class is rotation invariant.
    """
    g = _gluing_of(d)
    if all((a + b) % 2 == 1 for a, b in g.chords):
        return DiagramClass.O
    return DiagramClass.N


def rotate(g: Gluing, k: int) -> Gluing:
    """Rotate a gluing by k steps: every index d goes to ``d+k mod 2n``.

    The residue 0 is written as 2n.  Requires an integer ``1 <= k <= 2n``;
    ``rotate(g, 2n)`` is the identity.
    """
    pts = g.points
    k = _integer(k, "rotation shift")
    if not 1 <= k <= pts:
        raise InvalidArgumentError(f"rotation shift must be in 1..{pts}, got {k}")
    return _sorted_gluing(((a + k - 1) % pts + 1, (b + k - 1) % pts + 1) for a, b in g.chords)


def _least_rotation(g: Gluing) -> list[int]:
    """The least 0-based partner array among the even rotations of ``g``.

    The orbit is searched on the 0-based partner array ``p`` (``p[i]`` is
    the partner of point ``i + 1``, less one), never on rotated gluings.
    Lex order on partner arrays equals lex order on flattened normal forms:
    where two arrays first differ, at index i, both partners lie above i
    (a partner below i would have been fixed by the equal prefix), so i is
    the next chord start in both and its partner is the next flattened
    value.  The even rotation that brings odd point ``e + 1`` to point 1
    starts its array with e's clockwise span ``(p[e] - e) mod 2n``, so the
    orbit minimum is among the rotations whose odd-point span is least.
    The n spans cost O(n); only the tied candidates, one unless the
    stabilizer or the chord pattern makes spans repeat, are built in full
    (O(n) each) and compared.
    """
    pts = g.points
    p = [x - 1 for x in g.partner_map()[1:]]
    spans = [(p[e] - e) % pts for e in range(0, pts, 2)]
    least = min(spans)
    return min(
        [(x - e) % pts for x in p[e:] + p[:e]]
        for e, span in zip(range(0, pts, 2), spans)
        if span == least
    )


def canonical_form(d: DiagramLike) -> Gluing:
    """Orbit representative under even rotations.

    Returns the lexicographically least gluing (flattened-sequence order)
    among ``rotate(g, 2m)`` for ``m = 1..n``.  Two diagrams are isomorphic
    exactly when their canonical forms coincide.  Only the least partner
    array found by :func:`_least_rotation` becomes a ``Gluing``.
    """
    best = _least_rotation(_gluing_of(d))
    chords = tuple((i + 1, x + 1) for i, x in enumerate(best) if x > i)
    return _trusted_gluing((chords,))


def isomorphic(d1: DiagramLike, d2: DiagramLike) -> bool:
    """Whether some even rotation carries d1 onto d2."""
    g1, g2 = _gluing_of(d1), _gluing_of(d2)
    if g1.n != g2.n:
        raise SizeMismatchError(f"cannot compare n={g1.n} with n={g2.n}")
    return _least_rotation(g1) == _least_rotation(g2)


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
