"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own algorithms and data
layout: matchings are frozensets of frozenset pairs, rotation is a literal
index map, canonical forms are minima over explicitly materialized orbits,
and boundary circles come from a corner-gluing union-find rather than a
directed walk.  Slow is fine; these only run at small n.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from itertools import permutations

Matching = frozenset  # of frozenset({a, b}) pairs


def reference_matchings(pts: tuple[int, ...]) -> list[Matching]:
    """All perfect matchings of a point tuple, by plain recursion.

    The cyclic garbage collector is paused while the lists grow: it would
    walk every frozenset made so far again and again, which took most of
    the time from 14 points on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _matchings_of(pts)
    finally:
        if enabled:
            gc.enable()


def _matchings_of(pts: tuple[int, ...]) -> list[Matching]:
    if not pts:
        return [frozenset()]
    a = pts[0]
    out = []
    for i in range(1, len(pts)):
        b = pts[i]
        rest = pts[1:i] + pts[i + 1 :]
        for tail in _matchings_of(rest):
            out.append(tail | {frozenset((a, b))})
    return out


def all_matchings(n: int) -> list[Matching]:
    return reference_matchings(tuple(range(1, 2 * n + 1)))


def o_matchings(n: int) -> list[Matching]:
    """O-matchings via odd->even permutations, not by filtering."""
    odds = range(1, 2 * n, 2)
    evens = list(range(2, 2 * n + 1, 2))
    out = []
    for perm in permutations(evens):
        out.append(frozenset(frozenset((o, e)) for o, e in zip(odds, perm)))
    return out


def rotate_matching(m: Matching, k: int, pts: int) -> Matching:
    """Rotation as a literal index map d -> d+k mod 2n (residue 0 is 2n)."""
    shift = lambda d: (d + k - 1) % pts + 1
    return frozenset(frozenset(shift(d) for d in pair) for pair in m)


def matching_key(m: Matching) -> tuple:
    """Order-free comparable form: sorted tuple of sorted pairs."""
    return tuple(sorted(tuple(sorted(p)) for p in m))


def span_word(m: Matching, pts: int) -> tuple[int, ...]:
    """Clockwise span (partner - point) mod 2n of points 1..2n, in order."""
    partner = {}
    for pair in m:
        a, b = tuple(pair)
        partner[a], partner[b] = b, a
    return tuple((partner[d] - d) % pts for d in range(1, pts + 1))


def canonical_matching(m: Matching, pts: int, even_only: bool) -> tuple:
    """Minimum key over the rotation orbit (even shifts or all shifts)."""
    step = 2 if even_only else 1
    return min(
        matching_key(rotate_matching(m, k, pts)) for k in range(step, pts + 1, step)
    )


def is_o_matching(m: Matching) -> bool:
    return all(sum(pair) % 2 == 1 for pair in m)


def census_matchings(
    matchings: list[Matching], pts: int, even_only: bool
) -> dict[tuple, int]:
    """Canonical form -> orbit member count over a list of matchings."""
    orbits: dict[tuple, int] = {}
    for m in matchings:
        key = canonical_matching(m, pts, even_only)
        orbits[key] = orbits.get(key, 0) + 1
    return orbits


def count_fixed_matchings(matchings: list[Matching], pts: int, k: int) -> int:
    return sum(1 for m in matchings if rotate_matching(m, k, pts) == m)


def boundary_components(chords, n: int) -> list[tuple[frozenset, tuple]]:
    """Boundary circles of the disk-plus-bands surface by corner gluing.

    Each of the 2n marked points is flanked by corners (p,'-') and (p,'+').
    Boundary segments: arc i joins (i,'+') to (i+1,'-'); each chord band
    contributes two sides, glued straight for opposite-parity chords and
    crossed (half twist) for equal-parity chords.  Every corner meets
    exactly two segments, so circles are the components of that 2-regular
    graph.  Returns (arc id set, sorted chord pair tuple) per circle.
    """
    pts = 2 * n
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    segments = []
    for i in range(1, pts + 1):
        segments.append(((i, "+"), (i % pts + 1, "-"), ("arc", i)))
    for a, b in chords:
        if (a - b) % 2 == 0:
            segments.append(((a, "+"), (b, "+"), ("chord", a, b)))
            segments.append(((a, "-"), (b, "-"), ("chord", a, b)))
        else:
            segments.append(((a, "+"), (b, "-"), ("chord", a, b)))
            segments.append(((b, "+"), (a, "-"), ("chord", a, b)))
    for c1, c2, _ in segments:
        union(c1, c2)

    circles: dict = {}
    for c1, c2, tag in segments:
        circles.setdefault(find(c1), []).append(tag)
    out = []
    for tags in circles.values():
        arcs = frozenset(t[1] for t in tags if t[0] == "arc")
        chord_pairs = tuple(
            sorted((min(t[1], t[2]), max(t[1], t[2])) for t in tags if t[0] == "chord")
        )
        out.append((arcs, chord_pairs))
    return out


def spin_isomorphic(s1, s2) -> bool:
    """Spin graph isomorphism by definition: some rotation of the cyclic
    order, read as a relabelling of half-edges, sends the loops of s1 onto
    those of s2 and carries both partner maps of s1 onto those of s2.

    Spin graphs are read by attribute (``cyclic_order``, ``loops``,
    ``black_partner``, ``white_partner``) and are not validated.
    """
    o1, o2 = s1.cyclic_order, s2.cyclic_order
    m = len(o1)
    if m != len(o2):
        return False
    loops2 = {frozenset(pair) for pair in s2.loops}
    for r in range(m):
        phi = dict(zip(o1, o2[r:] + o2[:r]))
        if any(frozenset(phi[x] for x in pair) not in loops2 for pair in s1.loops):
            continue
        if all(
            phi[s1.black_partner[h]] == s2.black_partner[phi[h]]
            and phi[s1.white_partner[h]] == s2.white_partner[phi[h]]
            for h in o1
        ):
            return True
    return False


def arc_is_black(arc_id: int) -> bool:
    return arc_id % 2 == 1


def slow_totient(q: int) -> int:
    from math import gcd

    return sum(1 for r in range(1, q + 1) if gcd(r, q) == 1)


def uncolored_fixed_sum(n: int, k: int) -> int:
    """Matchings of 2n points fixed by rotation k (k | 2n), summed explicitly.

    Rotation k splits the points into k classes of q = 2n/k.  Choose 2r
    classes to pair off, C(k, 2r) ways; pair them, (2r-1)!! ways; join each
    pair of classes, q ways.  Each of the other k - 2r classes is matched
    across its own diameters, one way for even q and none for odd q.
    """
    from math import comb, prod

    q = 2 * n // k
    self_matched = 1 if q % 2 == 0 else 0
    return sum(
        comb(k, 2 * r) * prod(range(2 * r - 1, 0, -2)) * q**r * self_matched ** (k - 2 * r)
        for r in range(k // 2 + 1)
    )


def exact_average(values: list[int]) -> Fraction:
    return Fraction(sum(values), len(values))
