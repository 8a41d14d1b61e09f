"""Streaming enumeration and the brute-force census engine."""

from __future__ import annotations

import math
import multiprocessing

import pytest

from chord_census import (
    BudgetExceededError,
    DiagramClass,
    Gluing,
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
    _group_shifts,
    _shard_first_partners,
    _shard_matchings,
    _shard_task,
)

from oracles import (
    all_matchings,
    census_matchings,
    count_fixed_matchings,
    is_o_matching,
    o_matchings,
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


class TestEnumerateGluings:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_and_duplicate_free(self, n):
        seen = {as_matching(g) for g in enumerate_gluings(n)}
        assert seen == set(all_matchings(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cardinality(self, n):
        assert sum(1 for _ in enumerate_gluings(n)) == double_factorial(2 * n - 1)

    def test_lexicographic_order(self):
        flats = [g.flattened() for g in enumerate_gluings(4)]
        assert flats == sorted(flats)

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


class TestShardArrays:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("cls", [DiagramClass.ALL, DiagramClass.O])
    def test_shards_reproduce_the_stream(self, n, cls):
        stream = (
            enumerate_o_gluings(n) if cls is DiagramClass.O else enumerate_gluings(n)
        )
        expected = {as_matching(g) for g in stream}
        got = set()
        for fp in _shard_first_partners(n, cls):
            for row in _shard_matchings(n, fp, cls):
                pairs = frozenset(
                    frozenset((i + 1, int(row[i]) + 1))
                    for i in range(2 * n)
                    if i < row[i]
                )
                assert pairs not in got
                got.add(pairs)
        assert got == expected


class TestShardTask:
    """Each shard's counts against the reference orbits and fixed points."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_matches_reference_per_shard(self, n, cls, full):
        pts = 2 * n
        shifts, group_order = _group_shifts(n, full)
        pool = class_pool(n, cls)
        orbits = census_matchings(pool, pts, even_only=not full)
        for fp in _shard_first_partners(n, cls):
            shard = [m for m in pool if partner_of_1(m) == fp + 1]
            reps = {k: size for k, size in orbits.items() if k[0] == (1, fp + 1)}
            rows, orbit_count, fixed, size_sum, records = _shard_task(
                (n, cls.value, fp, shifts, True)
            )
            assert rows == len(shard)
            assert orbit_count == len(reps)
            assert size_sum == sum(reps.values())
            assert fixed == [count_fixed_matchings(shard, pts, s) for s in shifts]
            assert {chords: size for chords, size, _ in records} == reps
            assert all(size * st == group_order for _, size, st in records)


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

    @pytest.mark.parametrize(
        "cls", [DiagramClass.ALL, DiagramClass.O, DiagramClass.N]
    )
    @pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
    def test_workers_do_not_change_counts(self, cls, full):
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

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            orbit_census(6, budget=10394)
        assert orbit_census(6, budget=10395).orbit_count == 1799

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

        monkeypatch.setattr("chord_census.census._shard_matchings", no_shards)
        with pytest.raises(ValueError, match="n <= 32"):
            orbit_census(33, cls, budget=10**100)
        with pytest.raises(ValueError, match="n <= 32"):
            count_fixed(33, 2, cls, budget=10**100)

    def test_o_class_budget_charges_factorial(self):
        # 6! = 720 O-gluings fit a budget that (2*6-1)!! would burst
        assert orbit_census(6, DiagramClass.O, budget=720).orbit_count == 136

    def test_worker_exception_propagates(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module only when forked")
        original = census_mod._shard_matchings

        def failing(n, fp, cls):
            if fp == 3:
                raise RuntimeError("shard 3 failed")
            return original(n, fp, cls)

        monkeypatch.setattr(census_mod, "_shard_matchings", failing)
        result = None
        with pytest.raises(RuntimeError, match="shard 3 failed"):
            result = orbit_census(5, workers=2)
        assert result is None
        assert multiprocessing.active_children() == []

    def test_interrupt_from_progress_propagates(self):
        def interrupt(done, orbits):
            raise KeyboardInterrupt

        result = None
        with pytest.raises(KeyboardInterrupt):
            result = orbit_census(5, workers=2, progress=interrupt)
        assert result is None
        assert multiprocessing.active_children() == []

    def test_progress_callback(self):
        calls = []
        orbit_census(3, progress=lambda done, orbits: calls.append((done, orbits)))
        assert calls[-1][0] == 15
        assert calls[-1][1] == 7
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)


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
        original = census_mod._shard_first_partners

        def counted(n, cls):
            passes.append((n, cls))
            return original(n, cls)

        monkeypatch.setattr(census_mod, "_shard_first_partners", counted)
        assert main(["verify", "--to", "4"]) == 0
        classes = (DiagramClass.ALL, DiagramClass.O, DiagramClass.N)
        assert passes == [(n, cls) for n in range(2, 5) for cls in classes]
