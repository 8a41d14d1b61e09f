"""Streaming enumeration and the brute-force census engine."""

from __future__ import annotations

import ast
import collections
import concurrent.futures
import functools
import hashlib
import math
import multiprocessing
import os
import pickle
import tracemalloc
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chord_census import (
    BudgetExceededError,
    DiagramClass,
    Gluing,
    InvalidArgumentError,
    burnside_check,
    classify,
    count_fixed,
    double_factorial,
    enumerate_gluings,
    enumerate_o_gluings,
    orbit_census,
    rotate,
)
from chord_census import census as census_mod
from chord_census.cli import main
from chord_census.census import (
    _class_gluings,
    _first_partners,
    _group_shifts,
    _lift,
    _matching_table,
    _shard_task,
)

from oracles import (
    all_matchings,
    census_matchings,
    count_fixed_matchings,
    is_o_matching,
    matching_key,
    o_matchings,
    rotate_matching,
    span_word,
)


def as_matching(g: Gluing):
    return frozenset(frozenset(c) for c in g.chords)


def class_pool(n: int, cls: DiagramClass):
    pool = all_matchings(n)
    if cls is DiagramClass.O:
        return [m for m in pool if is_o_matching(m)]
    if cls is DiagramClass.N:
        return [m for m in pool if not is_o_matching(m)]
    return pool


def partner_of_1(m) -> int:
    return next(max(p) for p in m if 1 in p)


def shard_first_partners(n: int, cls: DiagramClass) -> range:
    """0-based partners of point 0, one shard each (class N: class all's)."""
    return _first_partners(2 * n, cls is DiagramClass.O)


def shard_width(n: int, cls: DiagramClass) -> int:
    """Gluings in each class-all or class-O shard: (2n-3)!! or (n-1)!."""
    return math.factorial(n - 1) if cls is DiagramClass.O else double_factorial(2 * n - 3)


def shard_task(n, cls, fps, shifts, keep_orbits, cols=None) -> tuple:
    """``_shard_task`` over the whole shards of ``fps``, or over the columns
    ``cols`` = (lo, hi) of one: (marks, fixed counts, orbit size sum,
    records)."""
    cols = cols or (0, shard_width(n, cls))
    return _shard_task((n, cls.value, tuple(fps), cols, shifts, keep_orbits))


def one_shard(n, cls, fp, shifts, keep_orbits, cols=None) -> tuple:
    """(rows, orbit_count, fixed_counts, orbit_size_sum, orbit_records) of
    the shard with first partner ``fp``, or of its columns ``cols``: a
    one-shard task's result with its one mark unpacked."""
    [(rows, orbits)], fixed, size_sum, records = shard_task(
        n, cls, (fp,), shifts, keep_orbits, cols
    )
    return rows, orbits, fixed, size_sum, records


def combined(results) -> tuple:
    """One task result from several in column order: marks listed, fixed
    counts and size sums added, records concatenated."""
    marks, fixed, size_sums, records = zip(*results)
    return (
        list(chain(*marks)),
        [sum(counts) for counts in zip(*fixed)],
        sum(size_sums),
        list(chain(*records)),
    )


def shard_rows(n: int, fp: int, cls: DiagramClass) -> np.ndarray:
    """The class-all or class-O shard with partner(0) = fp as partner
    arrays, one row per gluing: the transpose of the table lifted by that
    one first partner, class all's spans decoded, partner(i) = (i + S[i])
    mod 2n."""
    o_only = cls is DiagramClass.O
    S = _lift(_matching_table(n - 1, o_only), (fp,), o_only)
    if not o_only:
        S = (S + np.arange(2 * n, dtype=np.uint8)[:, None]) % (2 * n)
    return S.T


def shard_counts(n: int, cls: DiagramClass, fp: int, shifts: list[int]) -> tuple:
    """``one_shard``'s tuple with orbit records.  Class N has no shard of
    its own: it is the class-all shard less the class-O shard with the same
    first partner (there is none when fp is even), as the class-N census
    and its progress marks take it."""
    if cls is not DiagramClass.N:
        return one_shard(n, cls, fp, shifts, True)
    rows, orbit_count, fixed, size_sum, records = one_shard(
        n, DiagramClass.ALL, fp, shifts, True
    )
    if fp % 2:
        o_rows, o_count, o_fixed, o_sum, _ = one_shard(n, DiagramClass.O, fp, shifts, False)
        rows, orbit_count, size_sum = rows - o_rows, orbit_count - o_count, size_sum - o_sum
        fixed = [a - b for a, b in zip(fixed, o_fixed)]
    records = [r for r in records if classify(Gluing(r[0])) is DiagramClass.N]
    return rows, orbit_count, fixed, size_sum, records


@functools.lru_cache(maxsize=None)
def reference_shards(n: int, cls: DiagramClass, full: bool) -> dict[int, tuple]:
    """fp -> (rows, {representative: orbit size}, fixed counts) by the oracles."""
    pts = 2 * n
    shifts, _ = _group_shifts(n, full)
    pool = class_pool(n, cls)
    orbits = census_matchings(pool, pts, even_only=not full)
    out = {}
    for fp in shard_first_partners(n, cls):
        shard = [m for m in pool if partner_of_1(m) == fp + 1]
        reps = {k: size for k, size in orbits.items() if k[0] == (1, fp + 1)}
        out[fp] = (len(shard), reps, [count_fixed_matchings(shard, pts, s) for s in shifts])
    return out


def assert_shards_match_reference(n: int, cls: DiagramClass, full: bool) -> None:
    shifts, group_order = _group_shifts(n, full)
    for fp, (shard_rows, reps, shard_fixed) in reference_shards(n, cls, full).items():
        rows, orbit_count, fixed, size_sum, records = shard_counts(n, cls, fp, shifts)
        assert rows == shard_rows
        assert orbit_count == len(reps)
        assert size_sum == sum(reps.values())
        assert fixed == shard_fixed
        assert {chords: size for chords, size, _ in records} == reps
        assert all(size * st == group_order for _, size, st in records)


@pytest.fixture
def pool_always(monkeypatch):
    """Let a census of any size start a process pool."""
    monkeypatch.setattr(census_mod, "_POOL_MIN_GLUINGS", 0)


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """``max_workers`` of every pool a census starts; the pool runs each
    task in-process as it is submitted.  The census sees 64 usable CPUs, so
    pool sizes do not depend on the host."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def submit(self, fn, task):
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(census_mod, "_usable_cpus", lambda: 64)
    return started


def partner_row(m, n: int) -> tuple[int, ...]:
    """0-based partner array of a 1-based oracle matching."""
    row = [0] * (2 * n)
    for a, b in (tuple(p) for p in m):
        row[a - 1], row[b - 1] = b - 1, a - 1
    return tuple(row)


def flat_normal_form(m) -> tuple[int, ...]:
    return tuple(d for pair in matching_key(m) for d in pair)


def drawn_matching(draw, n: int):
    perm = draw(st.permutations(range(1, 2 * n + 1)))
    return frozenset(frozenset(perm[i : i + 2]) for i in range(0, 2 * n, 2))


@st.composite
def matchings_of_one_order(draw, count: int, max_n: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return n, [drawn_matching(draw, n) for _ in range(count)]


class TestSpanWords:
    """The two facts the census kernel reads its shards by, on oracle
    matchings: rotation shifts the span word cyclically, and span words
    order matchings as their flattened normal forms do."""

    @staticmethod
    def assert_rotation_shifts_word(m, pts: int) -> None:
        word = span_word(m, pts)
        for s in range(1, pts + 1):
            rotated = span_word(rotate_matching(m, s, pts), pts)
            assert rotated == word[pts - s :] + word[: pts - s]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rotation_shifts_every_span_word(self, n):
        for m in all_matchings(n):
            self.assert_rotation_shifts_word(m, 2 * n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_span_words_sort_as_normal_forms(self, n):
        pool = all_matchings(n)
        by_span = sorted(pool, key=lambda m: span_word(m, 2 * n))
        assert by_span == sorted(pool, key=flat_normal_form)

    @given(matchings_of_one_order(1))
    def test_rotation_shifts_drawn_span_word(self, drawn):
        n, (m,) = drawn
        self.assert_rotation_shifts_word(m, 2 * n)

    @given(matchings_of_one_order(2))
    def test_drawn_span_words_order_as_normal_forms(self, drawn):
        n, (a, b) = drawn
        words = span_word(a, 2 * n), span_word(b, 2 * n)
        forms = flat_normal_form(a), flat_normal_form(b)
        assert (words[0] < words[1]) == (forms[0] < forms[1])
        assert (words[0] == words[1]) == (a == b)


class TestEnumerateGluings:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_and_duplicate_free(self, n):
        seen = {as_matching(g) for g in enumerate_gluings(n)}
        assert seen == set(all_matchings(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cardinality(self, n):
        assert sum(1 for _ in enumerate_gluings(n)) == double_factorial(2 * n - 1)

    @pytest.mark.parametrize(
        "stream, oracle",
        [(enumerate_gluings, all_matchings), (enumerate_o_gluings, o_matchings)],
    )
    @pytest.mark.parametrize("n", range(1, 8))
    def test_lexicographic_order(self, stream, oracle, n):
        expected = sorted(matching_key(m) for m in oracle(n))
        assert [g.chords for g in stream(n)] == expected

    @pytest.mark.parametrize("stream", [enumerate_gluings, enumerate_o_gluings])
    def test_large_order_starts_lazily(self, stream):
        # 997 chords (1,2)...(1993,1994), then the order-3 stream shifted by 1994
        head = tuple((a, a + 1) for a in range(1, 1994, 2))
        expected = [
            head + tuple((a + 1994, b + 1994) for a, b in g.chords)
            for g in islice(stream(3), 3)
        ]
        assert [g.chords for g in islice(stream(1000), 3)] == expected

    def test_first_and_last(self):
        items = list(enumerate_gluings(3))
        assert items[0].text() == "(1,2)(3,4)(5,6)"
        assert items[-1].text() == "(1,6)(2,5)(3,4)"

    def test_n2_items(self):
        assert [g.text() for g in enumerate_gluings(2)] == [
            "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)",
        ]

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            next(enumerate_gluings(0))


@pytest.mark.parametrize("stream", [enumerate_gluings, enumerate_o_gluings])
@pytest.mark.parametrize("n", [1, 4])
def test_stream_items_are_plain_gluings(stream, n):
    for g in stream(n):
        assert type(g) is Gluing
        assert g == Gluing(g.chords) and hash(g) == hash(Gluing(g.chords))
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Gluing and back == g
        assert g._replace(chords=((1, 2),)) == Gluing(((1, 2),))


class TestEnumerateOGluings:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_and_duplicate_free(self, n):
        seen = {as_matching(g) for g in enumerate_o_gluings(n)}
        assert seen == set(o_matchings(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cardinality(self, n):
        assert sum(1 for _ in enumerate_o_gluings(n)) == math.factorial(n)

    def test_n2_items(self):
        assert [g.text() for g in enumerate_o_gluings(2)] == [
            "(1,2)(3,4)", "(1,4)(2,3)",
        ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_filtered_full_stream(self, n):
        filtered = [
            g for g in enumerate_gluings(n) if classify(g) is DiagramClass.O
        ]
        assert list(enumerate_o_gluings(n)) == filtered

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_item_is_o(self, n):
        assert all(classify(g) is DiagramClass.O for g in enumerate_o_gluings(n))


CLASS_ORACLES = {
    DiagramClass.ALL: all_matchings,
    DiagramClass.O: o_matchings,
    DiagramClass.N: lambda n: [m for m in all_matchings(n) if not is_o_matching(m)],
}


class TestClassGluings:
    @pytest.mark.parametrize("cls", list(DiagramClass))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_oracle_in_lexicographic_order(self, cls, n):
        expected = sorted(matching_key(m) for m in CLASS_ORACLES[cls](n))
        assert [g.chords for g in _class_gluings(n, cls)] == expected

    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    def test_all_and_o_are_the_bare_map(self, cls):
        assert type(_class_gluings(4, cls)) is map
        assert type(enumerate_gluings(4)) is map and type(enumerate_o_gluings(4)) is map

    @pytest.mark.parametrize("cls", list(DiagramClass))
    def test_order_read_at_the_call(self, cls):
        with pytest.raises(InvalidArgumentError, match="diagram order must be >= 1, got 0"):
            _class_gluings(0, cls)


class TestShardArrays:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    def test_shards_reproduce_the_stream(self, n, cls):
        stream = (
            enumerate_o_gluings(n) if cls is DiagramClass.O else enumerate_gluings(n)
        )
        expected = {as_matching(g) for g in stream}
        got = set()
        for fp in shard_first_partners(n, cls):
            for row in shard_rows(n, fp, cls):
                pairs = frozenset(
                    frozenset((i + 1, int(row[i]) + 1))
                    for i in range(2 * n)
                    if i < row[i]
                )
                assert pairs not in got
                got.add(pairs)
        assert got == expected

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    def test_shard_rows_in_stream_order(self, n, cls):
        # Class all and N: lexicographic partner arrays.  Class O: lexicographic
        # on the partners of 0-based points 2, 4, ...  Order fixes --orbit-reps.
        # Class N keeps the rows of the class-all shard that have a chord
        # joining two points of equal parity; at n = 1 there are none.
        order = (lambda row: row[2::2]) if cls is DiagramClass.O else None
        rows_of = {}
        for m in class_pool(n, cls):
            row = partner_row(m, n)
            rows_of.setdefault(row[0], []).append(row)
        for fp in shard_first_partners(n, cls):
            if cls is DiagramClass.N:
                M = shard_rows(n, fp, DiagramClass.ALL)
                M = M[((M + np.arange(2 * n)) % 2 == 0).any(axis=1)]
            else:
                M = shard_rows(n, fp, cls)
            expected = sorted(rows_of.get(fp, []), key=order)
            assert M.dtype == np.uint8 and M.shape == (len(expected), 2 * n)
            assert [tuple(int(v) for v in row) for row in M] == expected

    @pytest.mark.parametrize("k", range(0, 7))
    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    def test_matching_table_is_one_read_only_row_per_point(self, k, cls):
        # Class all holds lift-ready spans, (partner(j) - j) mod (2k + 1),
        # class O partners; each column decodes to a distinct matching.
        o_only = cls is DiagramClass.O
        rows = math.factorial(k) if o_only else double_factorial(2 * k - 1)
        try:
            T = _matching_table(k, o_only)
            assert T.dtype == np.uint8 and T.shape == (2 * k, rows)
            assert T.flags.c_contiguous and not T.flags.writeable
            points = np.arange(2 * k)[:, None]
            P = T.astype(np.intp) if o_only else (points + T) % (2 * k + 1)
            assert ((P < 2 * k) & (P != points)).all()
            assert (np.take_along_axis(P, P, axis=0) == points).all()
            if o_only:
                assert ((P + points) % 2 == 1).all()
            assert len(set(map(tuple, P.T.tolist()))) == rows
        finally:
            _matching_table.cache_clear()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_all_lift_writes_oracle_span_words(self, n):
        # Shard fp is the block of all_matchings(n), which lists matchings
        # in stream order, whose point 1 is matched to fp + 1.
        pts = 2 * n
        words = collections.defaultdict(list)
        for m in all_matchings(n):
            words[partner_of_1(m) - 1].append(span_word(m, pts))
        try:
            T = _matching_table(n - 1, False)
            for fp in shard_first_partners(n, DiagramClass.ALL):
                S = _lift(T, (fp,), False)
                assert S.dtype == np.uint8
                assert list(map(tuple, S.T.tolist())) == words[fp]
        finally:
            _matching_table.cache_clear()

    def test_n8_class_all_lift_writes_stream_span_words(self):
        # all_matchings(8) takes over a minute, so n = 8 reads the stream's
        # 2,027,025 gluings, in the same order, a shard at a time.
        n, pts = 8, 16
        width = double_factorial(2 * n - 3)
        stream = (g.chords for g in enumerate_gluings(n))
        try:
            T = _matching_table(n - 1, False)
            for fp in shard_first_partners(n, DiagramClass.ALL):
                flat = chain.from_iterable(chain.from_iterable(islice(stream, width)))
                chords = np.fromiter(flat, dtype=np.intp, count=width * pts) - 1
                chords = chords.reshape(width, n, 2)
                partner = np.empty((width, pts), dtype=np.intp)
                np.put_along_axis(partner, chords[:, :, 0], chords[:, :, 1], axis=1)
                np.put_along_axis(partner, chords[:, :, 1], chords[:, :, 0], axis=1)
                spans = (partner - np.arange(pts)) % pts
                assert np.array_equal(_lift(T, (fp,), False).T, spans)
        finally:
            _matching_table.cache_clear()
        assert next(stream, None) is None


class TestShardTask:
    """Each shard's counts against the reference orbits and fixed points."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_matches_reference_per_shard(self, n, cls, full):
        assert_shards_match_reference(n, cls, full)

    # 0: every shift compares alone to the end.  10**9: every survivor of
    # point 0 is finished with those of the other shifts.
    @pytest.mark.parametrize("merge_rows", [0, 10**9], ids=["alone", "merged"])
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_both_kernel_regimes_match_reference(self, n, cls, full, merge_rows, monkeypatch):
        monkeypatch.setattr(census_mod, "_MERGE_ROWS", merge_rows)
        assert_shards_match_reference(n, cls, full)

    def test_census_same_in_both_kernel_regimes(self, monkeypatch):
        results = []
        for merge_rows in (0, 10**9):
            monkeypatch.setattr(census_mod, "_MERGE_ROWS", merge_rows)
            results.append((orbit_census(8), orbit_census(9, DiagramClass.O)))
        assert results[0] == results[1]

    def test_shifts_that_are_no_group_raise(self):
        # {0, 2, 4} of Z_8 is no group: (1,2)(3,8)(4,7)(5,6) is fixed by the
        # half-turn alone, and a stabilizer of order 2 does not divide 3.
        with pytest.raises(AssertionError, match="stabilizer order does not divide"):
            shard_task(4, DiagramClass.ALL, (1,), [2, 4], False)

    def test_shifts_as_tuple_or_range_match_the_list(self):
        shifts, _ = _group_shifts(4, False)
        assert shifts == [2, 4, 6]
        expected = shard_task(4, DiagramClass.ALL, (1,), shifts, True)
        assert shard_task(4, DiagramClass.ALL, (1,), tuple(shifts), True) == expected
        assert shard_task(4, DiagramClass.ALL, (1,), range(2, 8, 2), True) == expected

    def test_every_n7_shard_matches_pinned_digest(self):
        # sha256 over repr() of every tuple, in loop order, pinned from the
        # engine that still had a class-N shard path (class N is now class
        # all less class O, so only those two classes have shards).
        digest = hashlib.sha256()
        try:
            for cls in (DiagramClass.ALL, DiagramClass.O):
                for full in (False, True):
                    shifts, _ = _group_shifts(7, full)
                    for fp in shard_first_partners(7, cls):
                        task = one_shard(7, cls, fp, shifts, True)
                        digest.update(repr(task).encode())
        finally:
            _matching_table.cache_clear()
        assert digest.hexdigest() == (
            "197993e02964612735daac7d7fadb12357cef1149ea0abf7a82a1bd9e6986cd6"
        )

    def test_task_peak_below_table_plus_shard_plus_20_bytes_a_row(self):
        n = 8
        shifts, _ = _group_shifts(n, False)
        _matching_table.cache_clear()
        tracemalloc.start()
        try:
            shard_task(n, DiagramClass.ALL, (1,), shifts, False)
            _, peak = tracemalloc.get_traced_memory()
            table = _matching_table(n - 1, False)
        finally:
            tracemalloc.stop()
            _matching_table.cache_clear()
        rows = table.shape[1]
        assert peak < table.nbytes + rows * 2 * n + 20 * rows

    def test_o_task_peak_below_table_plus_shard_plus_20_bytes_a_row(self):
        n = 9
        shifts, _ = _group_shifts(n, False)
        _matching_table.cache_clear()
        tracemalloc.start()
        try:
            shard_task(n, DiagramClass.O, (1,), shifts, False)
            _, peak = tracemalloc.get_traced_memory()
            table = _matching_table(n - 1, True)
        finally:
            tracemalloc.stop()
            _matching_table.cache_clear()
        rows = table.shape[1]
        assert peak < table.nbytes + rows * 2 * n + 20 * rows

    def test_census_peak_below_table_plus_level_plus_one_block(self):
        # n = 9 class all: 17 shards of 15!! = 2,027,025 gluings, each cut
        # into 16 blocks; the table's last level is lifted from the one below
        n = 9
        width = shard_width(n, DiagramClass.ALL)
        blocks = -(-width // census_mod._BLOCK_COLUMNS)
        cols = -(-width // blocks)
        table = (2 * n - 2) * width
        level = (2 * n - 4) * shard_width(n - 1, DiagramClass.ALL)
        _matching_table.cache_clear()
        tracemalloc.start()
        try:
            census = orbit_census(n, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert census.total_gluings == 17 * width
        assert blocks == 16
        assert peak < table + level + 2 * n * cols + 20 * cols


class TestRuns:
    """Consecutive small shards run as one kernel task and a wide shard as
    column blocks, in-process or in a pool; a run's result is its shards'
    results combined, and a shard's is its blocks' combined."""

    @pytest.fixture
    def tasks(self, monkeypatch) -> list[tuple]:
        """(first partners, column range) of each kernel task a census runs,
        in order."""
        seen = []
        original = census_mod._shard_task

        def recording(args):
            seen.append(args[2:4])
            return original(args)

        monkeypatch.setattr(census_mod, "_shard_task", recording)
        return seen

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_every_run_splits_into_its_shards(self, n, cls, full):
        shifts, _ = _group_shifts(n, full)
        fps = shard_first_partners(n, cls)
        try:
            alone = [shard_task(n, cls, (fp,), shifts, True) for fp in fps]
            for i in range(len(fps)):
                for j in range(i + 1, len(fps) + 1):
                    run = shard_task(n, cls, fps[i:j], shifts, True)
                    # each shard's mark as when it runs alone, fixed counts
                    # and size sums added, records in order; same types too
                    assert repr(run) == repr(combined(alone[i:j]))
        finally:
            _matching_table.cache_clear()

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_every_shard_is_the_sum_of_its_blocks(self, n, cls, full):
        shifts, _ = _group_shifts(n, full)
        width = shard_width(n, cls)
        try:
            for fp in shard_first_partners(n, cls):
                whole = shard_task(n, cls, (fp,), shifts, True)
                for blocks in {min(b, width) for b in (2, 3, 7, 60)}:
                    cuts = [width * b // blocks for b in range(blocks + 1)]
                    marks, *rest = combined(
                        shard_task(n, cls, (fp,), shifts, True, cols)
                        for cols in zip(cuts, cuts[1:])
                    )
                    assert len(marks) == blocks
                    rows, orbits = zip(*marks)
                    summed = ([(sum(rows), sum(orbits))], *rest)
                    assert repr(summed) == repr(whole)
        finally:
            _matching_table.cache_clear()

    # (run, block) columns: as shipped; one run per census; one shard per run
    # or block, whole or cut into blocks of 1000, 37 or 1 gluings; and blocks
    # narrower than a run (n = 6: class-all blocks, class-O runs).  A width
    # runs only where it makes at most 2048 tasks.
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_census_same_for_any_run_width(self, n, cls, full, monkeypatch):
        work = math.factorial(n) if cls is DiagramClass.O else double_factorial(2 * n - 1)
        shipped = census_mod._RUN_COLUMNS, census_mod._BLOCK_COLUMNS
        results = []
        for run_columns, block_columns in (
            shipped, (10**9, 10**9), (0, 10**9), (0, 1000), (0, 37), (0, 1), (500, 37)
        ):
            if work > 2048 * block_columns:
                continue
            monkeypatch.setattr(census_mod, "_RUN_COLUMNS", run_columns)
            monkeypatch.setattr(census_mod, "_BLOCK_COLUMNS", block_columns)
            calls = []
            census = orbit_census(
                n,
                cls,
                keep_orbits=n <= 7,
                full_rotation_group=full,
                progress=lambda *done: calls.append(done),
            )
            results.append((census, calls))
        assert len(results) >= 4
        assert all(result == results[0] for result in results[1:])

    def test_runs_hold_at_most_run_columns(self, tasks, monkeypatch):
        # n = 6: 11 class-all shards of 945 gluings, 6 class-O shards of 120
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 3 * 945)
        orbit_census(6)
        orbit_census(6, DiagramClass.O)
        assert [len(fps) for fps, _ in tasks] == [3, 3, 3, 2, 6]
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 944)  # below one shard
        orbit_census(6)
        assert [len(fps) for fps, _ in tasks[5:]] == [1] * 11

    def test_pool_takes_the_same_tasks(self, tasks, pools, pool_always, monkeypatch):
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 3 * 945)
        assert orbit_census(6, workers=2) == orbit_census(6)
        assert pools == [2]
        assert [len(fps) for fps, _ in tasks] == [3, 3, 3, 2] * 2

    def test_pool_takes_the_same_blocks(self, tasks, pools, pool_always, monkeypatch):
        # n = 6: 11 class-all shards of 945 gluings, cut into 3 blocks each
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 944)
        monkeypatch.setattr(census_mod, "_BLOCK_COLUMNS", 400)
        assert orbit_census(6, workers=2) == orbit_census(6)
        assert pools == [2]
        blocks = [((fp,), cols) for fp in range(1, 12) for cols in ((0, 315), (315, 630), (630, 945))]
        assert tasks == blocks * 2

    def test_pool_census_tasks_are_column_blocks(self, pools, monkeypatch):
        tasks = []

        def stub(args):
            _, _, fps, (lo, hi), shifts, _ = args
            tasks.append((fps, (lo, hi)))
            return [(hi - lo, 0)], [0] * len(shifts), hi - lo, []

        monkeypatch.setattr(census_mod, "_shard_task", stub)
        # The smallest class-all and class-O censuses that fork a pool:
        # 17 shards of 15!! gluings cut into 16 blocks, 11 of 10! into 28.
        for n, cls, shards, width, count in (
            (9, DiagramClass.ALL, 17, 2_027_025, 16),
            (11, DiagramClass.O, 11, 3_628_800, 28),
        ):
            tasks.clear()
            census = orbit_census(n, cls, workers=2, budget=10**8)
            assert census.total_gluings == shards * width
            assert len(tasks) == shards * count
            assert [fps for fps, _ in tasks] == [
                (fp,) for fp in shard_first_partners(n, cls) for _ in range(count)
            ]
            for i in range(0, len(tasks), count):
                cuts = [0] + [hi for _, (_, hi) in tasks[i : i + count]]
                assert [cols for _, cols in tasks[i : i + count]] == list(zip(cuts, cuts[1:]))
                assert cuts[-1] == width
                assert {hi - lo for hi, lo in zip(cuts[1:], cuts)} <= {
                    width // count, -(-width // count)
                }
            assert -(-width // count) <= census_mod._BLOCK_COLUMNS
        assert pools == [2, 2]

    def test_every_census_that_forks_has_shards_wider_than_a_run(self):
        for n in range(1, census_mod._MAX_ENGINE_ORDER + 1):
            for work, shards in ((double_factorial(2 * n - 1), 2 * n - 1), (math.factorial(n), n)):
                if work >= census_mod._POOL_MIN_GLUINGS:
                    assert work // shards > census_mod._RUN_COLUMNS


class TestOrbitCensus:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    def test_matches_reference_census(self, n, cls):
        pool = all_matchings(n)
        if cls is DiagramClass.O:
            pool = [m for m in pool if is_o_matching(m)]
        elif cls is DiagramClass.N:
            pool = [m for m in pool if not is_o_matching(m)]
        reference = census_matchings(pool, 2 * n, even_only=True)
        census = orbit_census(n, cls)
        assert census.orbit_count == len(reference)
        assert census.total_gluings == len(pool)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_group_census(self, n):
        reference = census_matchings(all_matchings(n), 2 * n, even_only=False)
        census = orbit_census(n, full_rotation_group=True)
        assert census.orbit_count == len(reference)
        assert census.group_order == 2 * n

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("cls", [DiagramClass.O, DiagramClass.N])
    def test_full_group_census_by_class(self, n, cls):
        pool = class_pool(n, cls)
        reference = census_matchings(pool, 2 * n, even_only=False)
        census = orbit_census(n, cls, full_rotation_group=True)
        assert census.orbit_count == len(reference)
        assert census.total_gluings == len(pool)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_group_orbit_records(self, n):
        census = orbit_census(n, keep_orbits=True, full_rotation_group=True)
        assert sum(o.size for o in census.orbits) == census.total_gluings
        for o in census.orbits:
            assert o.size * o.stabilizer_order == 2 * n
            orbit = [rotate(o.representative, k) for k in range(1, 2 * n + 1)]
            assert min(x.flattened() for x in orbit) == o.representative.flattened()
            assert sum(1 for x in orbit if x == o.representative) == o.stabilizer_order

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbit_records(self, n):
        census = orbit_census(n, keep_orbits=True)
        assert census.orbits is not None
        assert sum(o.size for o in census.orbits) == census.total_gluings
        for o in census.orbits:
            assert o.size * o.stabilizer_order == n
            # representative is the lexicographic minimum of its orbit
            orbit = [rotate(o.representative, 2 * m) for m in range(1, n + 1)]
            assert min(x.flattened() for x in orbit) == o.representative.flattened()
            stab = sum(1 for x in orbit if x == o.representative)
            assert stab == o.stabilizer_order

    def test_representatives_cover_n4(self):
        census = orbit_census(4, keep_orbits=True)
        reps = {o.representative.flattened() for o in census.orbits}
        assert len(reps) == census.orbit_count == 35

    def test_keep_orbits_defaults(self):
        assert orbit_census(3).orbits is not None
        assert orbit_census(7).orbits is None

    @pytest.mark.parametrize("flag", ["keep_orbits", "full_rotation_group"])
    @pytest.mark.parametrize("value", ["no", "yes", 1, 0, 1.0, [True]])
    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.N])
    def test_flags_must_be_bools(self, flag, value, cls):
        with pytest.raises(InvalidArgumentError, match=f"^{flag} must be a bool, got "):
            orbit_census(3, cls, **{flag: value})

    def test_numpy_bool_flags_accepted(self):
        full = orbit_census(3, full_rotation_group=np.True_, keep_orbits=np.False_)
        assert full.group_order == 6 and full.orbits is None
        even = orbit_census(3, full_rotation_group=np.False_, keep_orbits=np.True_)
        assert even.group_order == 3 and len(even.orbits) == even.orbit_count
        assert orbit_census(3, keep_orbits=None).orbits is not None

    def test_orbit_sizes_must_sum_to_the_class_size(self, monkeypatch):
        original = census_mod._shard_task

        def one_too_many(args):
            marks, fixed, size_sum, records = original(args)
            return marks, fixed, size_sum + 1, records

        monkeypatch.setattr(census_mod, "_shard_task", one_too_many)
        # n = 4: 7 shards of 15 gluings, one kernel task
        with pytest.raises(AssertionError, match=r"^orbit sizes sum to 106, expected 105$"):
            orbit_census(4)

    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_workers_do_not_change_counts(self, cls, full, pool_always, monkeypatch):
        # As shipped, each n = 5 census is one task; with one shard per task,
        # 9 class-all and 5 class-O tasks and their records cross a window of 4.
        monkeypatch.setattr(census_mod, "_usable_cpus", lambda: 2)
        for run_columns in (census_mod._RUN_COLUMNS, 0):
            monkeypatch.setattr(census_mod, "_RUN_COLUMNS", run_columns)
            seq = orbit_census(
                5, cls, keep_orbits=True, full_rotation_group=full, workers=1
            )
            par = orbit_census(
                5, cls, keep_orbits=True, full_rotation_group=full, workers=2
            )
            assert seq == par
            assert hash(seq) == hash(par)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_merged_fixed_counts_match_reference(self, n, cls, full):
        pts = 2 * n
        shifts, _ = _group_shifts(n, full)
        pool = class_pool(n, cls)
        census = orbit_census(n, cls, full_rotation_group=full)
        assert [s for s, _ in census.fixed_counts] == shifts + [pts]
        assert dict(census.fixed_counts) == {
            s: count_fixed_matchings(pool, pts, s) for s in shifts + [pts]
        }
        assert census.fixed_counts[-1] == (pts, census.total_gluings)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_class_n_census_matches_reference(self, n, full):
        pts = 2 * n
        shifts, group_order = _group_shifts(n, full)
        pool = class_pool(n, DiagramClass.N)
        reference = census_matchings(pool, pts, even_only=not full)
        calls = []
        census = orbit_census(
            n, DiagramClass.N, keep_orbits=True, full_rotation_group=full,
            progress=lambda done, orbits: calls.append((done, orbits)),
        )
        assert census.diagram_class is DiagramClass.N
        assert census.group_order == group_order
        assert [o.representative.chords for o in census.orbits] == sorted(reference)
        for o in census.orbits:
            assert o.size == reference[o.representative.chords]
            assert o.size * o.stabilizer_order == group_order
        assert census.orbit_count == len(reference)
        assert census.total_gluings == len(pool)
        assert dict(census.fixed_counts) == {
            s: count_fixed_matchings(pool, pts, s) for s in shifts + [pts]
        }
        # One call per class-all shard: the N rows and N orbits whose point 1
        # is matched at or below that shard's partner.
        assert calls == [
            (
                sum(1 for m in pool if partner_of_1(m) <= p),
                sum(1 for key in reference if key[0][1] <= p),
            )
            for p in range(2, pts + 1)
        ]

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            orbit_census(6, budget=10394)
        assert orbit_census(6, budget=10395).orbit_count == 1799

    def test_class_n_budget_charges_the_full_stream(self, monkeypatch):
        def no_shards(*args):
            raise AssertionError("a shard was generated")

        with monkeypatch.context() as patch:
            patch.setattr(census_mod, "_lift", no_shards)
            with pytest.raises(BudgetExceededError):
                orbit_census(6, DiagramClass.N, budget=10394)
        assert orbit_census(6, DiagramClass.N, budget=10395).orbit_count == 1663

    @pytest.mark.parametrize("n", range(1, census_mod._MAX_ENGINE_ORDER + 1))
    def test_budget_charges_the_engine_column_count(self, n):
        charged = {
            cls: census_mod._charge_budget(n, cls, 10**100)
            for cls in (DiagramClass.ALL, DiagramClass.O, DiagramClass.N)
        }
        assert charged[DiagramClass.ALL] == double_factorial(2 * n - 1)
        assert charged[DiagramClass.O] == math.factorial(n)
        assert charged[DiagramClass.N] == charged[DiagramClass.ALL]

    def test_census_reads_no_closed_form(self):
        # the brute-force path checks counting.py, so it imports nothing from it
        tree = ast.parse(Path(census_mod.__file__).read_text())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.extend(alias.name for alias in node.names)
        assert "diagram" in names  # the walk sees the package's own imports
        assert [name for name in names if name.rsplit(".", 1)[-1] == "counting"] == []

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("CHORD_CENSUS_BUDGET", "100")
        with pytest.raises(BudgetExceededError):
            orbit_census(4)
        monkeypatch.setenv("CHORD_CENSUS_BUDGET", "1000")
        assert orbit_census(4).orbit_count == 35

    def test_budget_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("CHORD_CENSUS_BUDGET", "4e7")
        with pytest.raises(ValueError, match="CHORD_CENSUS_BUDGET.*'4e7'"):
            orbit_census(4)

    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    def test_order_beyond_int8_engine_rejected_before_any_shard(
        self, cls, monkeypatch
    ):
        def no_shards(*args):
            raise AssertionError("a shard was generated")

        monkeypatch.setattr("chord_census.census._lift", no_shards)
        with pytest.raises(ValueError, match="n <= 32"):
            orbit_census(33, cls, budget=10**100)
        with pytest.raises(ValueError, match="n <= 32"):
            count_fixed(33, 2, cls, budget=10**100)

    def test_o_class_budget_charges_factorial(self):
        # 6! = 720 O-gluings fit a budget that (2*6-1)!! would burst
        assert orbit_census(6, DiagramClass.O, budget=720).orbit_count == 136

    def test_worker_exception_propagates(self, monkeypatch, pool_always):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module only when forked")
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 0)  # one shard per task
        original = census_mod._lift

        def failing(T, fps, o_only):
            # 2n - 2 = 8 table rows: the lift of a run, not of a table level
            if T.shape[0] == 8 and 3 in fps:
                raise RuntimeError("shard 3 failed")
            return original(T, fps, o_only)

        monkeypatch.setattr(census_mod, "_lift", failing)
        result = None
        with pytest.raises(RuntimeError, match="shard 3 failed"):
            result = orbit_census(5, workers=2)
        assert result is None
        assert multiprocessing.active_children() == []

    def test_interrupt_from_progress_propagates(self, pool_always, monkeypatch):
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 0)  # one shard per task

        def interrupt(done, orbits):
            raise KeyboardInterrupt

        result = None
        with pytest.raises(KeyboardInterrupt):
            result = orbit_census(5, workers=2, progress=interrupt)
        assert result is None
        assert multiprocessing.active_children() == []

    def test_workers_capped_at_shard_count(self, pools, pool_always, monkeypatch):
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 0)  # one shard per task
        assert orbit_census(2, workers=500) == orbit_census(2)
        assert pools == [3]
        assert orbit_census(1, workers=8) == orbit_census(1)
        assert orbit_census(2, DiagramClass.O, workers=8) == orbit_census(2, DiagramClass.O)
        assert pools == [3, 2]

    def test_small_census_starts_no_pool(self, pools, monkeypatch):
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 0)  # one shard per task
        assert orbit_census(5, workers=2) == orbit_census(5, workers=1)
        assert pools == []
        # (2*5-1)!! = 945 gluings reach this threshold; the 5! = 120 of the
        # class-O pass behind class N do not, so only its class-all pass forks.
        monkeypatch.setattr(census_mod, "_POOL_MIN_GLUINGS", 945)
        assert orbit_census(5, workers=2) == orbit_census(5, workers=1)
        assert pools == [2]
        n_class = orbit_census(5, DiagramClass.N, workers=1)
        assert orbit_census(5, DiagramClass.N, workers=2) == n_class
        assert pools == [2, 2]

    def test_workers_capped_at_task_count(self, pools, pool_always, monkeypatch):
        # n = 6: 11 class-all shards of 945 gluings, cut into 3 blocks each
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 944)
        monkeypatch.setattr(census_mod, "_BLOCK_COLUMNS", 400)
        assert orbit_census(6, workers=20) == orbit_census(6)
        assert pools == [20]
        assert orbit_census(6, workers=50) == orbit_census(6)
        assert pools == [20, 33]

    def test_workers_capped_at_usable_cpus(self, pools, pool_always, monkeypatch):
        # every worker forks at once and builds its own table
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 0)  # one shard per task
        monkeypatch.setattr(census_mod, "_usable_cpus", lambda: 2)
        assert orbit_census(5, workers=500) == orbit_census(5)
        assert pools == [2]
        monkeypatch.setattr(census_mod, "_usable_cpus", lambda: 1)
        assert orbit_census(5, workers=500) == orbit_census(5)
        assert pools == [2]  # one usable CPU runs in-process

    def test_usable_cpus(self, monkeypatch):
        cpus = census_mod._usable_cpus()
        assert 1 <= cpus <= (os.cpu_count() or cpus)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert census_mod._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert census_mod._usable_cpus() == 3

    def test_no_matching_table_outlives_a_census(self):
        orbit_census(5)
        assert census_mod._matching_table.cache_info().currsize == 0

        def fail(done, orbits):
            assert census_mod._matching_table.cache_info().currsize == 1
            raise RuntimeError("progress failed")

        with pytest.raises(RuntimeError, match="progress failed"):
            orbit_census(5, workers=1, progress=fail)
        assert census_mod._matching_table.cache_info().currsize == 0

    def test_progress_callback(self):
        calls = []
        orbit_census(3, progress=lambda done, orbits: calls.append((done, orbits)))
        assert calls[-1][0] == 15
        assert calls[-1][1] == 7
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)


class TestTaskWindow:
    """The pool path through a fake executor that runs each task when its
    result is read and logs every submit, read and shutdown."""

    WORKERS = 2  # a window of 4 tasks

    @pytest.fixture
    def log(self, monkeypatch) -> list[tuple]:
        events = []

        class LazyFuture:
            def __init__(self, fn, task, index):
                self.fn, self.task, self.index = fn, task, index

            def result(self):
                events.append(("read", self.index))
                return self.fn(self.task)

        class LoggingPool:
            def __init__(self, max_workers):
                events.append(("start", max_workers))
                self.submitted = 0

            def submit(self, fn, task):
                events.append(("submit", self.submitted))
                self.submitted += 1
                return LazyFuture(fn, task, self.submitted - 1)

            def shutdown(self, cancel_futures=False):
                events.append(("shutdown", cancel_futures))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LoggingPool)
        monkeypatch.setattr(census_mod, "_POOL_MIN_GLUINGS", 0)
        monkeypatch.setattr(census_mod, "_usable_cpus", lambda: 64)
        # n = 6: 11 class-all shards of 945 gluings, cut into 10 blocks each,
        # so 110 tasks: more than 10 windows
        monkeypatch.setattr(census_mod, "_RUN_COLUMNS", 0)
        monkeypatch.setattr(census_mod, "_BLOCK_COLUMNS", 100)
        return events

    @staticmethod
    def most_in_flight(events) -> int:
        """The most tasks ever submitted and not yet read."""
        flight = most = 0
        for kind, _ in events:
            flight += {"submit": 1, "read": -1}.get(kind, 0)
            most = max(most, flight)
        return most

    @staticmethod
    def indices(events, kind) -> list[int]:
        return [i for k, i in events if k == kind]

    def test_window_bounds_tasks_in_flight(self, log):
        alone, pooled = [], []
        whole = orbit_census(6, keep_orbits=True, progress=lambda *m: alone.append(m))
        assert log == []  # one worker runs in-process
        census = orbit_census(
            6, keep_orbits=True, workers=self.WORKERS, progress=lambda *m: pooled.append(m)
        )
        assert census == whole and len(census.orbits) == census.orbit_count
        assert pooled == alone and len(alone) == 11
        assert log[0] == ("start", self.WORKERS)
        assert self.indices(log, "submit") == self.indices(log, "read") == list(range(110))
        assert self.most_in_flight(log) == 2 * self.WORKERS
        assert log[-1] == ("shutdown", True)
        assert [e for e in log if e[0] == "shutdown"] == [("shutdown", True)]

    @pytest.mark.parametrize("j", [0, 37, 105, 109])
    def test_raising_task_stops_submitting(self, log, monkeypatch, j):
        original = census_mod._shard_task
        ran = []

        def failing(args):
            ran.append(args)
            if len(ran) == j + 1:  # the fake runs tasks in the order read
                raise RuntimeError(f"task {j} failed")
            return original(args)

        monkeypatch.setattr(census_mod, "_shard_task", failing)
        # the traceback keeps the census's frame, and its stream, alive
        with pytest.raises(RuntimeError, match=f"^task {j} failed$") as raised:
            orbit_census(6, workers=self.WORKERS)
        window = 2 * self.WORKERS
        assert self.indices(log, "read") == list(range(j + 1))
        assert self.indices(log, "submit") == list(range(min(j + window, 110)))
        assert self.most_in_flight(log) <= window
        assert [e for e in log if e[0] == "shutdown"] == [("shutdown", True)]
        assert census_mod._matching_table.cache_info().currsize == 0
        assert raised.tb is not None

    @pytest.mark.parametrize("shard", [1, 4, 11])
    def test_raising_progress_stops_submitting(self, log, shard):
        def interrupt(done, orbits):
            if done == 945 * shard:
                raise KeyboardInterrupt

        # the traceback keeps the census's frame, and its stream, alive
        with pytest.raises(KeyboardInterrupt) as raised:
            orbit_census(6, workers=self.WORKERS, progress=interrupt)
        j = 10 * shard - 1  # progress fires once a shard's last block is read
        window = 2 * self.WORKERS
        assert self.indices(log, "read") == list(range(j + 1))
        assert self.indices(log, "submit") == list(range(min(j + window, 110)))
        assert self.most_in_flight(log) <= window
        assert [e for e in log if e[0] == "shutdown"] == [("shutdown", True)]
        assert census_mod._matching_table.cache_info().currsize == 0
        assert raised.tb is not None


class TestCountFixed:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_direct_filter(self, n):
        pool = all_matchings(n)
        o_pool = [m for m in pool if is_o_matching(m)]
        for k in range(2, 2 * n + 1, 2):
            assert count_fixed(n, k).count == count_fixed_matchings(pool, 2 * n, k)
            assert (
                count_fixed(n, k, DiagramClass.O).count
                == count_fixed_matchings(o_pool, 2 * n, k)
            )

    def test_identity_fixes_everything(self):
        assert count_fixed(4, 8).count == 105
        assert count_fixed(4, 8, DiagramClass.O).count == 24
        assert count_fixed(4, 8, DiagramClass.N).count == 105 - 24

    def test_known_small_fixed_counts(self):
        assert count_fixed(3, 2, DiagramClass.O).count == 3
        assert count_fixed(2, 2).count == 3

    def test_odd_shift_rejected(self):
        with pytest.raises(ValueError):
            count_fixed(3, 3)

    @pytest.mark.parametrize("k", [2.0, "2", True])
    def test_non_integer_shift_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match="integer"):
            count_fixed(3, k)

    def test_numpy_integer_shift_accepted(self):
        fixed = count_fixed(3, np.int64(2), DiagramClass.O)
        assert type(fixed.shift) is int
        assert (fixed.shift, fixed.count) == (2, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            count_fixed(3, 8)


class TestKnownValues:
    def test_orbit_counts(self):
        assert orbit_census(2).orbit_count == 3
        assert orbit_census(4, DiagramClass.O).orbit_count == 10
        assert orbit_census(3, DiagramClass.N).orbit_count == 3

    def test_o_fixed_identity_holds_at_n9(self):
        from chord_census import o_fixed

        for i in (1, 3, 9):
            assert count_fixed(9, 2 * i, DiagramClass.O).count == o_fixed(9, i)


class TestBurnside:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    def test_average_of_fixed_counts_is_orbit_count(self, n, cls):
        assert burnside_check(n, cls)

    def test_n5_o_orbit_count(self):
        assert orbit_census(5, DiagramClass.O).orbit_count == 28


class TestEnginePasses:
    def test_verify_makes_one_engine_pass_per_class(self, capsys, monkeypatch):
        passes = []
        original = census_mod._charge_budget

        def counted(n, cls, budget):
            passes.append((n, cls))
            return original(n, cls, budget)

        monkeypatch.setattr(census_mod, "_charge_budget", counted)
        assert main(["verify", "--to", "4"]) == 0
        classes = (DiagramClass.ALL, DiagramClass.O)
        assert passes == [(n, cls) for n in range(2, 5) for cls in classes]


# every public census entry that takes an order, called at order n
CENSUS_ORDER_ENTRIES = {
    "enumerate_gluings": enumerate_gluings,
    "enumerate_o_gluings": enumerate_o_gluings,
    "orbit_census": orbit_census,
    "count_fixed": lambda n: count_fixed(n, 2),
    "burnside_check": burnside_check,
}


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [2.0, "2", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize(
        "entry", CENSUS_ORDER_ENTRIES.values(), ids=CENSUS_ORDER_ENTRIES
    )
    def test_non_integer_order_rejected(self, entry, value):
        with pytest.raises(InvalidArgumentError, match="integer"):
            entry(value)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(workers=2.0), dict(workers="2"), dict(workers=True), dict(budget=1e9)],
        ids=["float workers", "string workers", "bool workers", "float budget"],
    )
    def test_non_integer_workers_or_budget_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError, match="integer"):
            orbit_census(3, **kwargs)

    def test_numpy_integers_accepted(self):
        census = orbit_census(np.int64(3), workers=np.int64(1), budget=np.int64(100))
        assert type(census.n) is int
        assert census == orbit_census(3)
        assert type(count_fixed(np.int64(3), 2, DiagramClass.O).n) is int


class TestClassArgument:
    @pytest.mark.parametrize("value", ["o", "n", "all"])
    def test_class_value_reads_as_the_enum(self, value):
        cls = DiagramClass(value)
        census = orbit_census(4, value)
        assert census.diagram_class is cls
        assert census == orbit_census(4, cls)
        fixed = count_fixed(4, 2, value)
        assert fixed.diagram_class is cls
        assert fixed == count_fixed(4, 2, cls)
        assert burnside_check(4, value)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda cls: orbit_census(4, cls),
            lambda cls: count_fixed(4, 2, cls),
            lambda cls: burnside_check(4, cls),
        ],
        ids=["orbit_census", "count_fixed", "burnside_check"],
    )
    @pytest.mark.parametrize("value", ["x", "O", None])
    def test_unknown_class_rejected(self, entry, value):
        with pytest.raises(InvalidArgumentError, match="class must be all, o or n"):
            entry(value)
