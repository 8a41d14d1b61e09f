"""Streaming gluing enumeration and the brute-force orbit census.

This module is the empirical side of the package: it counts by actually
generating gluings, and exists to validate the closed forms in
:mod:`chord_census.counting` rather than to trust them.

Enumeration order is lexicographic on the flattened normal form: the least
unmatched point is always matched next, partners ascending.  That order
also partitions the stream into independent shards keyed by the partner of
point 1, which is how the census parallelizes.

The census never materializes the set of seen canonical forms.  A gluing
opens a new orbit exactly when it *is* the lexicographic minimum of its
rotation orbit, so counting minima counts orbits.  Each shift compares a
shard (int8 partner arrays, one row per gluing) with its rotation column by
column, keeping only the rows equal so far; almost every row differs in
column 0, so a shift costs about one pass over one column.  Rows equal to
the end are fixed by the shift, which gives the fixed-point counts and
stabilizer orders.  Orbit representatives are collected on request.

``orbit_census`` is the only entry into the engine: one pass per (n, class,
group) yields the orbit count, the class size and the fixed count of every
group element.  ``count_fixed`` and ``burnside_check`` read their answers
from such a census.

Work is bounded by a gluing budget (default 4*10^7, overridable with the
``CHORD_CENSUS_BUDGET`` environment variable or per call); class N filters
the full stream, so it is charged the full (2n-1)!!.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .counting import double_factorial
from .diagram import DiagramClass, Gluing
from .errors import BudgetExceededError, InvalidArgumentError

__all__ = [
    "DEFAULT_BUDGET",
    "BUDGET_ENV_VAR",
    "OrbitInfo",
    "OrbitCensus",
    "FixedPointCount",
    "enumerate_gluings",
    "enumerate_o_gluings",
    "orbit_census",
    "count_fixed",
    "burnside_check",
]

DEFAULT_BUDGET = 40_000_000
BUDGET_ENV_VAR = "CHORD_CENSUS_BUDGET"
_MAX_ENGINE_ORDER = 32  # a partner plus a shift, up to 4n - 2, must fit in int8

ProgressFn = Callable[[int, int], None]  # (gluings processed, orbits found)


# ---------------------------------------------------------------------------
# streaming enumeration
# ---------------------------------------------------------------------------


def _matchings(n: int, o_only: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """Backtracking walk over normal-form chord tuples, lexicographic order.

    Free points live in an array-backed doubly linked list (sentinels 0 and
    2n+1), giving O(1) removal and LIFO restore.  The least free point is
    always the next chord's first endpoint, so emitted tuples need no
    re-sorting.  With ``o_only`` the partner candidates skip equal parity.
    """
    pts = 2 * n
    nxt = list(range(1, pts + 2))
    prv = list(range(-1, pts + 1))
    chords: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = []

    def advance(a: int, b: int) -> int:
        b = nxt[b]
        if o_only:
            while b <= pts and (b - a) % 2 == 0:
                b = nxt[b]
        return b

    a = nxt[0]
    b = advance(a, a)
    while True:
        if b > pts:
            if not stack:
                return
            a, b = stack.pop()
            chords.pop()
            nxt[prv[b]] = b
            prv[nxt[b]] = b
            nxt[prv[a]] = a
            prv[nxt[a]] = a
            b = advance(a, b)
            continue
        nxt[prv[a]] = nxt[a]
        prv[nxt[a]] = prv[a]
        nxt[prv[b]] = nxt[b]
        prv[nxt[b]] = prv[b]
        chords.append((a, b))
        stack.append((a, b))
        a2 = nxt[0]
        if a2 > pts:
            yield tuple(chords)
            a, b = stack.pop()
            chords.pop()
            nxt[prv[b]] = b
            prv[nxt[b]] = b
            nxt[prv[a]] = a
            prv[nxt[a]] = a
            b = advance(a, b)
        else:
            a = a2
            b = advance(a, a)


def enumerate_gluings(n: int) -> Iterator[Gluing]:
    """Yield each of the (2n-1)!! normal-form gluings exactly once.

    Lexicographic order, constant memory per item.
    """
    if n < 1:
        raise InvalidArgumentError(f"diagram order must be >= 1, got {n}")
    for chords in _matchings(n, o_only=False):
        yield Gluing(chords)


def enumerate_o_gluings(n: int) -> Iterator[Gluing]:
    """Yield each of the n! O-gluings exactly once, lexicographic order.

    Every chord joins an odd point to an even point; the stream equals
    ``enumerate_gluings(n)`` filtered to class O.
    """
    if n < 1:
        raise InvalidArgumentError(f"diagram order must be >= 1, got {n}")
    for chords in _matchings(n, o_only=True):
        yield Gluing(chords)


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitInfo:
    representative: Gluing
    size: int
    stabilizer_order: int


@dataclass(frozen=True)
class OrbitCensus:
    n: int
    diagram_class: DiagramClass
    group_order: int
    orbit_count: int
    total_gluings: int
    fixed_counts: tuple[tuple[int, int], ...]  # (shift, count), ascending, identity 2n last
    orbits: Optional[tuple[OrbitInfo, ...]]


@dataclass(frozen=True)
class FixedPointCount:
    n: int
    shift: int
    diagram_class: DiagramClass
    count: int


# ---------------------------------------------------------------------------
# vectorized shard engine
# ---------------------------------------------------------------------------


def _shard_first_partners(n: int, cls: DiagramClass) -> list[int]:
    """0-based partners of point 0, one shard each."""
    pts = 2 * n
    if cls is DiagramClass.O:
        return list(range(1, pts, 2))
    return list(range(1, pts))


def _shard_matchings(n: int, fp: int, cls: DiagramClass) -> np.ndarray:
    """Partner arrays (0-based involutions, one row per gluing) for the
    shard with partner(0) = fp.  Class N shares the full stream."""
    pts = 2 * n
    M = np.zeros((1, pts), dtype=np.int8)
    M[0, 0] = fp
    M[0, fp] = 0
    if cls is DiagramClass.O:
        free = np.array([o for o in range(1, pts, 2) if o != fp], dtype=np.int8)
        FREE = free.reshape(1, -1)
        for endpoint in range(2, pts, 2):
            rows, f = FREE.shape
            newM = np.repeat(M, f, axis=0)
            newFREE = np.empty((rows * f, f - 1), dtype=np.int8)
            for j in range(f):
                b = FREE[:, j]
                sub = newM[j::f]
                sub[:, endpoint] = b
                np.put_along_axis(
                    sub, b[:, None].astype(np.intp), np.int8(endpoint), axis=1
                )
                newFREE[j::f] = FREE[:, [c for c in range(f) if c != j]]
            M, FREE = newM, newFREE
        return M
    free = np.array([p for p in range(1, pts) if p != fp], dtype=np.int8)
    FREE = free.reshape(1, -1)
    while FREE.shape[1] > 0:
        rows, f = FREE.shape
        branch = f - 1
        newM = np.repeat(M, branch, axis=0)
        newFREE = np.empty((rows * branch, f - 2), dtype=np.int8)
        a = FREE[:, 0].astype(np.intp)
        for j in range(1, f):
            b = FREE[:, j]
            sub = newM[j - 1 :: branch]
            np.put_along_axis(sub, a[:, None], b[:, None], axis=1)
            np.put_along_axis(sub, b[:, None].astype(np.intp), FREE[:, 0][:, None], axis=1)
            newFREE[j - 1 :: branch] = FREE[:, [c for c in range(f) if c not in (0, j)]]
        M, FREE = newM, newFREE
    return M


def _is_o_rows(M: np.ndarray) -> np.ndarray:
    """Class-O mask: every point's partner has opposite parity."""
    pts = M.shape[1]
    idx = np.arange(pts, dtype=np.int8)
    return (((M + idx) & 1) == 1).all(axis=1)


def _rotated(col: np.ndarray, s: int, pts: int) -> np.ndarray:
    """(col + s) mod pts for int8 partners, without slow int8 division."""
    rot = col + np.int8(s)
    rot -= np.int8(pts) * (rot >= pts)
    return rot


def _shard_task(args: tuple) -> tuple:
    """One shard of the census; module level so worker processes can run it.

    Returns (rows_in_class, orbit_count, fixed_counts, orbit_size_sum,
    orbit_records); the records list is empty unless ``keep_orbits``.
    """
    n, cls_value, fp, shifts, keep_orbits = args
    cls = DiagramClass(cls_value)
    pts = 2 * n
    M = _shard_matchings(n, fp, cls)
    if cls is DiagramClass.N:
        M = M[~_is_o_rows(M)]
    rows = M.shape[0]
    if rows == 0:
        return (0, 0, [0] * len(shifts), 0, [])

    not_min = np.zeros(rows, dtype=bool)
    stab = np.ones(rows, dtype=np.int64)
    fixed = []
    for s in shifts:
        # Column i of row r rotated by s is (M[r, i - s] + s) mod pts.  Only rows
        # equal so far go on to the next column; column 0 is fp in every row.
        rot = _rotated(M[:, -s], s, pts)
        not_min |= rot < fp
        alive = np.flatnonzero(rot == fp)
        for i in range(1, pts):
            if alive.size == 0:
                break
            rot = _rotated(M[alive, i - s], s, pts)
            base = M[alive, i]
            not_min[alive[rot < base]] = True
            alive = alive[rot == base]
        fixed.append(alive.size)
        stab[alive] += 1

    canon = ~not_min
    orbit_count = int(canon.sum())
    group_order = len(shifts) + 1
    stabs = stab[canon]
    if not np.all(group_order % stabs == 0):
        raise AssertionError("stabilizer order does not divide group order")
    size_sum = int((group_order // stabs).sum())
    records = []
    if keep_orbits:
        for row, st in zip(M[canon], stabs):
            chords = tuple(
                (i + 1, int(row[i]) + 1) for i in range(pts) if i < row[i]
            )
            records.append((chords, group_order // int(st), int(st)))
    return (rows, orbit_count, fixed, size_sum, records)


def _resolve_budget(budget: Optional[int]) -> int:
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise InvalidArgumentError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if budget < 1:
        raise InvalidArgumentError(f"budget must be >= 1, got {budget}")
    return budget


def _charge_budget(n: int, cls: DiagramClass, budget: Optional[int]) -> None:
    limit = _resolve_budget(budget)
    work = (
        math.factorial(n)
        if cls is DiagramClass.O
        else double_factorial(2 * n - 1)
    )
    if work > limit:
        raise BudgetExceededError(
            f"{work} gluings exceed the budget of {limit}; raise budget or "
            f"set {BUDGET_ENV_VAR}"
        )


# ---------------------------------------------------------------------------
# public census operations
# ---------------------------------------------------------------------------


def _group_shifts(n: int, full_rotation_group: bool) -> tuple[list[int], int]:
    if full_rotation_group:
        return list(range(1, 2 * n)), 2 * n
    return [2 * m for m in range(1, n)], n


def orbit_census(
    n: int,
    diagram_class: DiagramClass = DiagramClass.ALL,
    *,
    keep_orbits: Optional[bool] = None,
    full_rotation_group: bool = False,
    budget: Optional[int] = None,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
) -> OrbitCensus:
    """Brute-force isomorphism census of a diagram class.

    Partitions the stream of gluings into orbits under the even rotation
    group (or the full rotation group of order 2n when
    ``full_rotation_group`` is set, which is the uncolored-diagram notion of
    isomorphism).  The same pass counts the gluings each group element
    fixes (``fixed_counts``).  ``keep_orbits`` defaults to True up to n = 6
    and False above, where the representative list would get large; counts
    are exact either way.  Results are identical for every ``workers``
    setting.
    """
    if n < 1:
        raise InvalidArgumentError(f"diagram order must be >= 1, got {n}")
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    if n > _MAX_ENGINE_ORDER:
        raise InvalidArgumentError(
            f"the int8 census engine needs n <= {_MAX_ENGINE_ORDER}, got {n}"
        )
    _charge_budget(n, diagram_class, budget)
    if keep_orbits is None:
        keep_orbits = n <= 6
    shifts, group_order = _group_shifts(n, full_rotation_group)
    tasks = [
        (n, diagram_class.value, fp, shifts, keep_orbits)
        for fp in _shard_first_partners(n, diagram_class)
    ]

    total = orbit_count = size_sum = 0
    fixed = [0] * len(shifts)
    records: list[tuple] = []
    with ExitStack() as stack:
        if workers == 1:
            shards = map(_shard_task, tasks)
        else:
            pool = ProcessPoolExecutor(max_workers=workers)
            # On any exception, drop the shards not yet started and join the workers.
            stack.callback(pool.shutdown, cancel_futures=True)
            shards = pool.map(_shard_task, tasks)
        for rows, oc, shard_fixed, ss, shard_records in shards:
            total += rows
            orbit_count += oc
            size_sum += ss
            fixed = [a + b for a, b in zip(fixed, shard_fixed)]
            records.extend(shard_records)
            if progress is not None:
                progress(total, orbit_count)

    if size_sum != total:
        raise AssertionError(f"orbit sizes sum to {size_sum}, expected {total}")
    orbits = None
    if keep_orbits:
        orbits = tuple(
            OrbitInfo(Gluing(chords), size, stab) for chords, size, stab in records
        )
    return OrbitCensus(
        n=n,
        diagram_class=diagram_class,
        group_order=group_order,
        orbit_count=orbit_count,
        total_gluings=total,
        fixed_counts=tuple(zip(shifts, fixed)) + ((2 * n, total),),
        orbits=orbits,
    )


def count_fixed(
    n: int,
    k: int,
    diagram_class: DiagramClass = DiagramClass.ALL,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> FixedPointCount:
    """Count gluings in a class fixed by rotation k.

    k must be an even shift in 1..2n (even rotations are the color
    preserving ones); k = 2n is the identity and fixes the whole class.
    The count is read from the ``fixed_counts`` of one ``orbit_census``.
    """
    if k % 2 != 0 or not 1 <= k <= 2 * n:
        raise InvalidArgumentError(f"shift must be even and within 1..{2 * n}, got {k}")
    census = orbit_census(
        n, diagram_class, keep_orbits=False, budget=budget, workers=workers
    )
    count = dict(census.fixed_counts)[k]
    return FixedPointCount(n=n, shift=k, diagram_class=diagram_class, count=count)


def _burnside_holds(census: OrbitCensus) -> bool:
    """Burnside's lemma on one census: fixed counts sum to |G| * orbits."""
    fixed_sum = sum(count for _, count in census.fixed_counts)
    return fixed_sum == census.group_order * census.orbit_count


def burnside_check(
    n: int,
    diagram_class: DiagramClass = DiagramClass.ALL,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> bool:
    """Verify the Burnside identity empirically for one class.

    Over one ``orbit_census`` under the even rotations, the fixed-point
    counts of the n group elements must sum to n times the orbit count.
    """
    census = orbit_census(
        n, diagram_class, keep_orbits=False, budget=budget, workers=workers
    )
    return _burnside_holds(census)
