"""Streaming gluing enumeration and the brute-force orbit census.

This module is the empirical side of the package: it counts by actually
generating gluings, and exists to validate the closed forms in
:mod:`chord_census.counting` rather than to trust them.

Enumeration order is lexicographic on the flattened normal form: the least
unmatched point is always matched next, partners ascending.  The stream
keeps chord prefixes on an explicit stack and, once at most six points are
free, completes a prefix from that free set's completions, listed once per
call: memory is O(n^2) stack references plus those lists, about 1 MB for
n <= 10.  Class N's stream, like its census, is derived here: the class-all
stream less the class-O stream, which is a subsequence of it in the same
order.

The same order partitions the stream into independent shards keyed by the
partner of point 1, which is how the census parallelizes.  Shards are not
enumerated: deleting point 1 and its partner leaves a matching of 2n-2
points (class O: an O-matching), so each shard is one table of those,
relabelled by byte arithmetic, plus the chord at point 1.  One operation,
the lift, adds that chord for a list of first partners, one block of
columns each: the table is built level by level, each level the last lifted
by every first partner, and a run of shards is the table lifted by the
run's first partners.  A block is a fixed handful of 2-D numpy calls over
the rows below and above the new chord's partner, so a lift costs a few
calls per first partner, not per row.  The table lives for one census.

The table and every shard are stored one row per point, one matching per
column, a byte per entry.  A class-all table holds lift-ready spans, the
clockwise span (partner(i) - i) plus one where the chord wraps past the
last point, so its lift writes the kernel's spans directly; a class-O table
holds partners, which the kernel turns into spans.  So relabelling a table
into a shard and reading one point of every gluing both touch contiguous
memory.

The census never materializes the set of seen canonical forms.  A gluing
opens a new orbit exactly when it *is* the lexicographic minimum of its
rotation orbit, so counting minima counts orbits.

A kernel task is a run or a block, one column per gluing.  A run is
consecutive whole shards side by side, at most 2^15 gluings, so the small
shards of a small census share one kernel pass.  A wider shard runs alone,
cut into equal column blocks of at most 2^17 gluings, each a slice of the
table lifted by the shard's first partner, so a task holds the table plus
at most 2^17 columns; a census big enough for a process pool sends the
pool such blocks, through a window of at most 2 * workers tasks submitted
and not yet read, so the main process holds a few tasks' futures, not
every one.  The census adds up a shard's blocks before it reports
the shard.  The kernel reads a task as span words, which order gluings as
normal forms do (see ``chord_census.diagram``), so canonicity is a
least-rotation (necklace) test on the span word and a rotation a
re-indexing of rows.  Each shift compares a
task's first two points with its rotation's over whole rows, then steps
point by point, keeping only the gluings equal so far; few gluings get
past point 1.  Once a shift has few gluings left, it stops stepping
alone.  One merged compare then finishes every shift's survivors, those
compared to the end alone included, as (gluing, shift) pairs compared at
every point in one array operation: a fixed number of numpy calls per task.
Pairs equal to the end are fixed, which gives the fixed-point counts; only
fixed gluings have a stabilizer above 1, so stabilizers and orbit sizes are
finished from those pairs alone.  A task returns one set of counts; only
progress reads shards, so only its orbit count is also split by shard.
Orbit representatives are collected on request.

``orbit_census`` is the only entry into the engine (numpy loads with its
first call): one pass per (n, class, group) yields the orbit count, the
class size and the fixed count of every group element.  ``count_fixed``
and ``burnside_check`` read their answers from such a census.

Work is bounded by a gluing budget (default 4*10^7, overridable with the
``CHORD_CENSUS_BUDGET`` environment variable or per call).  Class N is the
class-all census less the class-O one, so it is charged the full (2n-1)!!.
A census of fewer than 10^7 gluings runs in-process whatever ``workers``
says: below that, forking a process pool costs more than the shard work it
splits.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # numpy loads with the first census, inside the engine
    import numpy as np

from .diagram import DiagramClass, Gluing, _span_chords, _trusted_gluing, classify
from .errors import BudgetExceededError, InvalidArgumentError, _flag, _integer, _shown

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
# Partners and spans stay below 2n <= 64, so they fit a byte.
_MAX_ENGINE_ORDER = 32
_TAIL_POINTS = 6  # memo size vs speed: 8 points is faster, but its memo is ~8x larger
_MERGE_ROWS = 64  # survivors of one shift few enough to finish with the other shifts'
_POOL_MIN_GLUINGS = 10**7  # below this, forking a pool costs more than it saves
_RUN_COLUMNS = 1 << 15  # gluings of one kernel task made of several shards
# Gluings of one kernel task cut from a shard wider than _RUN_COLUMNS.  The
# kernel is faster on blocks than on whole wide shards: orbit_census(9) took
# 690 ms with whole shards of 2,027,025 gluings and 383 ms with blocks of at
# most 2^17 (394 ms at 2^18, 418 at 2^16, 476 at 2^15; median of five, one
# process).  Against whole shards, 2^17 cut the census benchmark's peak from
# 39.2 to 38.0 MB at the same wall time.  One 2^15 or 2^16 cap for runs and
# blocks cost 20% or 3% of its wall, and runs as wide as 2^17 raised the
# verify benchmark's peak by 1.6 MB.
_BLOCK_COLUMNS = 1 << 17

ProgressFn = Callable[[int, int], None]  # (gluings processed, orbits found)


# ---------------------------------------------------------------------------
# streaming enumeration
# ---------------------------------------------------------------------------


def _extend(prefix: tuple, free: tuple[int, ...], o_only: bool) -> Iterator[tuple]:
    """(prefix + chord, rest) for each chord from the least free point to an
    allowed partner, partners ascending; with ``o_only`` opposite parity only."""
    a = free[0]
    for i in range(1, len(free)):
        b = free[i]
        if not o_only or (b - a) & 1:
            yield prefix + ((a, b),), free[1:i] + free[i + 1 :]


def _matchings(n: int, o_only: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """Normal-form chord tuples in lexicographic order.

    A stack of lazy child iterators walks the chord prefixes without
    recursion.  Once at most ``_TAIL_POINTS`` points are free, the prefix is
    completed from that free set's list of completions, built once per call.
    """
    memo: dict[tuple[int, ...], list[tuple]] = {(): [()]}

    def tails(free: tuple[int, ...]) -> list[tuple]:
        done = memo.get(free)
        if done is None:
            done = memo[free] = [
                chords + tail
                for chords, rest in _extend((), free, o_only)
                for tail in tails(rest)
            ]
        return done

    stack = [iter([((), tuple(range(1, 2 * n + 1)))])]
    while stack:
        for prefix, free in stack[-1]:
            if len(free) <= _TAIL_POINTS:
                yield from map(prefix.__add__, tails(free))
            else:
                stack.append(_extend(prefix, free, o_only))
                break
        else:
            stack.pop()


def _less(items: Iterator, drop: Iterator) -> Iterator:
    """``items`` without ``drop``, a subsequence of it in the same order
    that holds no ``None``: each item equal to the next dropped one goes."""
    skip = next(drop, None)
    for item in items:
        if item == skip:
            skip = next(drop, None)
        else:
            yield item


def _class_gluings(n: int, cls: DiagramClass) -> Iterator[Gluing]:
    """The gluings of ``cls`` in lexicographic order.

    Classes all and O are the bare ``map`` over their matchings; class N is
    class all less class O, which is a subsequence of it in the same order.
    """
    n = _integer(n, "diagram order", 1)
    if cls is DiagramClass.N:
        return _less(_class_gluings(n, DiagramClass.ALL), _class_gluings(n, DiagramClass.O))
    return map(_trusted_gluing, zip(_matchings(n, cls is DiagramClass.O)))


def enumerate_gluings(n: int) -> Iterator[Gluing]:
    """Yield each of the (2n-1)!! normal-form gluings exactly once.

    Lexicographic order.  Memory is O(n^2) for the stack of prefixes plus
    the completions of every free set of at most six points reached, about
    1 MB for n <= 10.
    """
    return _class_gluings(n, DiagramClass.ALL)


def enumerate_o_gluings(n: int) -> Iterator[Gluing]:
    """Yield each of the n! O-gluings exactly once, lexicographic order.

    Every chord joins an odd point to an even point; the stream equals
    ``enumerate_gluings(n)`` filtered to class O, with the same memory bound.
    """
    return _class_gluings(n, DiagramClass.O)


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


def _first_partners(pts: int, o_only: bool) -> range:
    """0-based partners that point 0 can take among ``pts`` points (class O:
    the odd ones), ascending."""
    return range(1, pts, 1 + o_only)


def _lift(T: np.ndarray, fps: Sequence[int], o_only: bool) -> np.ndarray:
    """Add the chord (0, fp) to every matching of the table ``T`` (one row
    per point, one column per matching), one block of ``T``'s columns per fp
    of ``fps``, side by side in that order.  The other labels keep their
    order (class O: their order within each parity), so each block keeps
    ``T``'s column order.  A block is written by a fixed handful of 2-D
    numpy calls, each over the table rows that land below the new chord's
    partner or over those that land above it, so a lift costs O(len(fps))
    calls whatever the table's height.

    Class all works on spans.  ``T`` holds lift-ready spans of its 2k
    points, (partner(j) - j) mod (2k + 1), which is the clockwise span plus
    one where the chord wraps past the last point; the lift returns the
    clockwise spans (partner(i) - i) mod (2k + 2) that the kernel reads.
    Inserting points 0 and fp adds one to a span exactly where it reaches
    a threshold that depends only on the row: fp - 1 - j below the
    insertion, 2k + fp - j above it.

    Class O works on partners: even labels all move up two and odd labels
    past fp move up two, which is not an order-preserving insertion, so its
    spans would need a mod-2n wrap on every row and save nothing; the
    kernel turns its partners into spans."""
    import numpy as np
    rows, cols = T.shape
    out = np.empty((rows + 2, cols * len(fps)), dtype=np.uint8)
    # 2k + 1, 2k, ..., 1 down the rows: every threshold run is a slice
    limits = np.arange(rows + 1, 0, -1, dtype=np.uint8)[:, None]
    for b, fp in enumerate(fps):
        block = out[:, b * cols : (b + 1) * cols]
        block[0] = fp
        # dst = src + shift, the shift written first as bytes (a bool is 0 or 1).
        if not o_only:
            block[fp] = rows + 2 - fp
            for src, dst, at in (
                (T[: fp - 1], block[1:fp], limits[rows + 2 - fp :]),
                (T[fp - 1 :], block[fp + 1 :], limits[: rows + 1 - fp]),
            ):
                np.greater_equal(src, at, out=dst.view(np.bool_))
                dst += src
        else:
            block[fp] = 0
            # odd points, even partners: every label moves up two
            np.add(T[1:fp:2], 2, out=block[1:fp:2])
            np.add(T[fp::2], 2, out=block[fp + 2 :: 2])
            # even points, odd partners: labels past fp move up two
            dst = block[2::2]
            np.greater_equal(T[::2], fp, out=dst.view(np.bool_))
            dst += dst
            dst += T[::2]
    return out


@functools.lru_cache(maxsize=1)
def _matching_table(k: int, o_only: bool) -> np.ndarray:
    """Every matching of 2k points (class O: every even-odd matching),
    read-only uint8, one row per point and one column per matching in shard
    order: lift-ready spans for class all, partners for class O (see
    ``_lift``).  Each level lifts the last by every first partner; a
    class-all level is then made lift-ready in place, a row at a time."""
    import numpy as np
    T = np.zeros((0, 1), dtype=np.uint8)
    for pts in range(2, 2 * k + 1, 2):
        T = _lift(T, _first_partners(pts, o_only), o_only)
        if not o_only:  # plus one where the chord wraps: span >= pts - i
            wraps = np.empty(T.shape[1], dtype=np.uint8)
            for i, row in enumerate(T[1:], 1):  # point 0 never wraps
                np.greater_equal(row, pts - i, out=wraps.view(np.bool_))
                row += wraps
    T.flags.writeable = False
    return T


def _shard_task(args: tuple) -> tuple:
    """A run of consecutive shards of the census, or one column block of one
    shard, in one kernel pass; module level so worker processes can run it.

    ``args`` is (n, class value, first partners, (lo, hi), shifts,
    keep_orbits).  The task is columns lo:hi of the order-(n-1) table lifted
    by those first partners: a run has the table's full width, a block has
    one first partner.  It is one contiguous row per point, so one point of
    every gluing is one contiguous read.  The kernel reads each column as a
    span word, S[i] = (partner(i) - i) mod 2n, which a rotation by s shifts
    cyclically by s (see ``chord_census.diagram``), so a rotation is a
    re-indexing of rows.  The class-all lift writes spans directly; class
    O's partners are turned into spans in place, a row at a time.  Point
    0's span is each column's own first partner, so one pass serves every
    shard of the run.

    Only a gluing some shift fixes has a stabilizer above 1, so stabilizers
    and orbit sizes are finished from the fixed (gluing, shift) pairs alone.
    Returns one (marks, fixed_counts, orbit_size_sum, orbit_records) for
    the task's columns, records in column order (none unless
    ``keep_orbits``).  Only progress reads shards, so only orbit counts are
    split: ``marks`` holds a (rows, orbit_count) per first partner, in run
    order.  A run's or shard's result sums its shards' or blocks'.
    """
    import numpy as np
    n, cls_value, fps, (lo, hi), shifts, keep_orbits = args
    pts = 2 * n
    o_only = DiagramClass(cls_value) is DiagramClass.O
    S = _lift(_matching_table(n - 1, o_only)[:, lo:hi], fps, o_only)
    rows = S.shape[1]
    if o_only:  # partners to spans: (p - i) mod 256, then min(x, x + 2n)
        wrap = np.empty(rows, dtype=np.uint8)
        for i, row in enumerate(S[1:], 1):  # point 0's span is its partner
            row -= i
            np.add(row, pts, out=wrap)
            np.minimum(row, wrap, out=row)
        del wrap
    eq, lt = np.empty(rows, dtype=bool), np.empty(rows, dtype=bool)
    not_min = np.zeros(rows, dtype=bool)
    # Span i of gluing r rotated by s is S[i - s, r].  Each shift compares
    # points 0 and 1 over the whole run, then steps point by point, keeping
    # only the gluings equal so far.  Once at most _MERGE_ROWS are left (or
    # none differed anywhere), they wait to be finished with every other
    # shift's.
    rest_rows, rest_shift = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for s in shifts:
        # (S[-s], S[1 - s]) against (S[0], S[1]), lexicographically.
        head, second = S[-s], S[1 - s]
        np.equal(head, S[0], out=eq)
        np.less(second, S[1], out=lt)
        lt &= eq
        not_min |= lt
        np.less(head, S[0], out=lt)
        not_min |= lt
        np.equal(second, S[1], out=lt)
        eq &= lt
        alive = np.flatnonzero(eq)
        i = 2
        while alive.size > _MERGE_ROWS and i < pts:
            rot = S[i - s][alive]
            base = S[i][alive]
            not_min[alive[rot < base]] = True
            alive = alive[rot == base]
            i += 1
        rest_rows.append(alive)
        rest_shift.append(np.full(alive.size, s))
    # Every point of every pair at once: the first point at which a pair
    # differs decides it, and a pair that differs nowhere is fixed.
    alive, shift = np.concatenate(rest_rows), np.concatenate(rest_shift)
    rot = S[np.arange(pts)[:, None] - shift, alive]
    base = S[:, alive]
    at = (rot != base).argmax(axis=0), np.arange(alive.size)
    rot, base = rot[at], base[at]
    not_min[alive[rot < base]] = True
    same = rot == base
    alive, shift = alive[same], shift[same]

    runs, width = len(fps), rows // len(fps)
    fixed = np.bincount(shift, minlength=pts).take(shifts).tolist()
    group_order = len(shifts) + 1
    # Only a fixed gluing has a stabilizer above 1: the identity plus every
    # shift that fixes it.  Fixed pairs are few, so a Counter tallies them as
    # fast as np.unique, whose first call alone maps about 0.5 MB of numpy.
    fixes = collections.Counter(alive.tolist())
    fixed_rows = np.array(list(fixes), dtype=np.intp)
    stabs = np.array(list(fixes.values()), dtype=np.intp) + 1
    if np.any(group_order % stabs):
        raise AssertionError("stabilizer order does not divide group order")
    # count_nonzero without an axis counts in C; with one it builds and sums
    # a temporary.
    shards = not_min.reshape(runs, width)
    marks = [(width, width - int(np.count_nonzero(shard))) for shard in shards]
    # group_order gluings an orbit, less where the stabilizer is above 1
    lost = group_order - group_order // stabs[~not_min[fixed_rows]]
    size_sum = group_order * sum(orbits for _, orbits in marks) - int(lost.sum())
    records = []
    if keep_orbits:
        reps = np.flatnonzero(~not_min)
        for r, word in zip(reps.tolist(), S[:, reps].T.tolist()):
            st = fixes[r] + 1
            records.append((_span_chords(word), group_order // st, st))
    return marks, fixed, size_sum, records


def _resolve_budget(budget: Optional[int]) -> int:
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise InvalidArgumentError(
                f"{BUDGET_ENV_VAR} must be an integer, got {_shown(env)}"
            ) from None
    return _integer(budget, "budget", 1)


def _charge_budget(n: int, cls: DiagramClass, budget: Optional[int]) -> int:
    """The gluings a census of ``cls`` works through, once within budget: the
    product of each table level's first-partner count (N is charged as all)."""
    limit = _resolve_budget(budget)
    o_only = cls is DiagramClass.O
    work = math.prod(len(_first_partners(pts, o_only)) for pts in range(2, 2 * n + 1, 2))
    if work > limit:
        raise BudgetExceededError(
            f"{work} gluings exceed the budget of {_shown(limit)}; raise budget or "
            f"set {BUDGET_ENV_VAR}"
        )
    return work


def _usable_cpus() -> int:
    """The CPUs this process may run on (where the OS cannot say, all of them)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _task_results(tasks: Sequence[tuple], workers: int) -> Iterator[tuple]:
    """Each kernel task's result, in column order.

    One worker runs the tasks in-process.  More run in a process pool of at
    most one worker per task and per usable CPU (a pool forks every worker
    up front, and each builds its own table), which holds at most 2 *
    workers tasks submitted and not yet read: each result read makes room
    for the next task, so the main process never holds every task's future.
    On an exception, or when the stream is closed, the pool drops the tasks
    not yet started and joins its workers.
    """
    workers = min(workers, len(tasks), _usable_cpus())
    if workers == 1:
        yield from map(_shard_task, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = (pool.submit(_shard_task, task) for task in tasks)
        window = collections.deque(itertools.islice(futures, 2 * workers))
        while window:
            yield window.popleft().result()
            window.extend(itertools.islice(futures, 1))  # the read result's successor
    finally:
        pool.shutdown(cancel_futures=True)


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
    are exact either way.  Both are flags: a Python or numpy bool (or None
    for ``keep_orbits``) passes, and anything else raises
    :class:`InvalidArgumentError`.  Kernel tasks are runs of small shards
    or column blocks of wide ones (see the module docstring); a shard's
    blocks are summed before ``progress`` gets its numbers, so it fires
    once per shard and records keep column order.  ``workers`` is an upper
    bound: tasks go to a process pool of at most that many workers (and at
    most one per task and per usable CPU) only for a census of at least
    10^7 gluings, at most 2 * workers tasks at a time.  Results
    are identical for every ``workers`` setting.  Class N is a class-all
    census less a class-O one, each deciding on its own pool; ``progress``
    gets its numbers after each class-all shard.
    """
    n = _integer(n, "diagram order", 1)
    workers = _integer(workers, "workers", 1)
    try:
        diagram_class = DiagramClass(diagram_class)
    except ValueError:
        raise InvalidArgumentError(
            f"class must be all, o or n, got {_shown(diagram_class)}"
        ) from None
    if n > _MAX_ENGINE_ORDER:
        raise InvalidArgumentError(
            f"the uint8 census engine needs n <= {_MAX_ENGINE_ORDER}, got {_shown(n)}"
        )
    if keep_orbits is None:
        keep_orbits = n <= 6
    keep_orbits = _flag(keep_orbits, "keep_orbits")
    full_rotation_group = _flag(full_rotation_group, "full_rotation_group")
    work = _charge_budget(n, diagram_class, budget)
    if diagram_class is DiagramClass.N:
        marks: list[tuple[int, int]] = []  # (rows, orbits) after each class-O shard
        shard = itertools.count()  # class-all shard j (fp j + 1) follows O's 0..j // 2

        def less_o(total: int, orbits: int) -> None:
            o_total, o_orbits = marks[next(shard) // 2]
            progress(total - o_total, orbits - o_orbits)

        kw = dict(full_rotation_group=full_rotation_group, budget=budget, workers=workers)
        o = orbit_census(
            n, DiagramClass.O, keep_orbits=False, progress=lambda *m: marks.append(m), **kw
        )
        every = orbit_census(n, keep_orbits=keep_orbits, progress=progress and less_o, **kw)
        return _class_n(every, o)
    shifts, group_order = _group_shifts(n, full_rotation_group)
    fps = _first_partners(2 * n, diagram_class is DiagramClass.O)
    width = work // len(fps)  # gluings in every shard
    # Consecutive shards run as one kernel task of at most _RUN_COLUMNS
    # gluings.  A wider shard runs alone, cut into equal column blocks of at
    # most _BLOCK_COLUMNS, so no task is both a run and a block.  A census
    # big enough for a pool has shards wider than a run: its tasks are blocks.
    per_task = max(1, _RUN_COLUMNS // width)
    blocks = -(-width // _BLOCK_COLUMNS) if width > _RUN_COLUMNS else 1
    cuts = [width * b // blocks for b in range(blocks + 1)]
    tasks = [
        (n, diagram_class.value, tuple(fps[i : i + per_task]), cols, shifts, keep_orbits)
        for i in range(0, len(fps), per_task)
        for cols in zip(cuts, cuts[1:])
    ]
    total = orbit_count = size_sum = 0
    fixed = [0] * len(shifts)
    records: list[OrbitInfo] = []
    done = _task_results(tasks, workers if work >= _POOL_MIN_GLUINGS else 1)
    try:
        for marks, task_fixed, task_size_sum, task_records in done:
            fixed = [a + b for a, b in zip(fixed, task_fixed)]
            size_sum += task_size_sum
            records.extend(
                OrbitInfo(_trusted_gluing((c,)), size, st) for c, size, st in task_records
            )
            for rows, orbits in marks:  # one per run shard, or one for a block
                total += rows
                orbit_count += orbits
                if progress is not None and total % width == 0:  # a whole shard
                    progress(total, orbit_count)
    finally:
        done.close()  # a raising progress drops the pool's tasks not yet started
        _matching_table.cache_clear()  # no table outlives the pass
    if size_sum != total:
        raise AssertionError(f"orbit sizes sum to {size_sum}, expected {total}")
    return OrbitCensus(
        n=n,
        diagram_class=diagram_class,
        group_order=group_order,
        orbit_count=orbit_count,
        total_gluings=total,
        fixed_counts=tuple(zip(shifts, fixed)) + ((2 * n, total),),
        orbits=tuple(records) if keep_orbits else None,
    )


def _class_n(every: OrbitCensus, o: OrbitCensus) -> OrbitCensus:
    """Class N as class all less class O; a rotation never changes the class."""
    orbits = every.orbits and tuple(
        i for i in every.orbits if classify(i.representative) is DiagramClass.N
    )
    fixed = tuple((s, a - b) for (s, a), (_, b) in zip(every.fixed_counts, o.fixed_counts))
    return replace(
        every,
        diagram_class=DiagramClass.N,
        orbit_count=every.orbit_count - o.orbit_count,
        total_gluings=every.total_gluings - o.total_gluings,
        fixed_counts=fixed,
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
    The count is read from the ``fixed_counts`` of one ``orbit_census``, so
    each call costs a whole census of the class: a caller that needs
    several shifts should run ``orbit_census`` once and read its
    ``fixed_counts``.
    """
    n = _integer(n, "diagram order", 1)
    k = _integer(k, "rotation shift", 1, 2 * n)
    if k % 2 != 0:
        raise InvalidArgumentError(f"rotation shift must be even, got {_shown(k)}")
    census = orbit_census(
        n, diagram_class, keep_orbits=False, budget=budget, workers=workers
    )
    count = dict(census.fixed_counts)[k]
    return FixedPointCount(n=n, shift=k, diagram_class=census.diagram_class, count=count)


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
