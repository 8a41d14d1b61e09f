"""Boundary cycle tracing and surface classification."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chord_census import (
    ArcStep,
    ChordStep,
    Color,
    DiagramClass,
    Gluing,
    InconsistentTopologyError,
    classify,
    cycle_counts,
    enumerate_gluings,
    normalize,
    rotate,
    surface_type,
    trace_cycles,
)
from chord_census import cycles as cycles_mod

from oracles import all_matchings, arc_is_black, boundary_components

WORKED_EXAMPLE = "(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)"


@st.composite
def gluings(draw, max_n: int = 7) -> Gluing:
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(list(range(1, 2 * n + 1))))
    return normalize(list(zip(perm[::2], perm[1::2])))


def steps(cycle):
    return [
        (s.start, s.end) if isinstance(s, ChordStep) else (s.start, s.end, s.color)
        for s in cycle.steps
    ]


class TestWorkedExample:
    def test_black_cycles(self):
        dec = trace_cycles(Gluing.parse(WORKED_EXAMPLE))
        b = Color.BLACK
        assert len(dec.b_cycles) == 2
        assert steps(dec.b_cycles[0]) == [
            (1, 2, b), (2, 4), (4, 3, b), (3, 7), (7, 8, b), (8, 1),
        ]
        assert steps(dec.b_cycles[1]) == [
            (5, 6, b), (6, 9), (9, 10, b), (10, 11), (11, 12, b), (12, 5),
        ]

    def test_white_cycles(self):
        dec = trace_cycles(Gluing.parse(WORKED_EXAMPLE))
        w = Color.WHITE
        assert len(dec.w_cycles) == 2
        assert steps(dec.w_cycles[0]) == [
            (2, 3, w), (3, 7), (7, 6, w), (6, 9), (9, 8, w), (8, 1),
            (1, 12, w), (12, 5), (5, 4, w), (4, 2),
        ]
        # one arc and one chord: the shortest possible cycle
        assert steps(dec.w_cycles[1]) == [(10, 11, w), (11, 10)]

    def test_lambda_pair_and_total(self):
        dec = trace_cycles(Gluing.parse(WORKED_EXAMPLE))
        assert dec.counts == (2, 2)
        assert dec.total == 4
        assert cycle_counts(Gluing.parse(WORKED_EXAMPLE)) == (2, 2)

    def test_text_form(self):
        dec = trace_cycles(Gluing.parse(WORKED_EXAMPLE))
        assert dec.text().splitlines()[0] == "Cb1=[1,2](2,4)[4,3](3,7)[7,8](8,1)"

    def test_json_form(self):
        rec = trace_cycles(Gluing.parse(WORKED_EXAMPLE)).to_json_dict()
        assert rec["lambda_b"] == 2 and rec["lambda_w"] == 2
        assert rec["b_cycles"][0]["steps"][0] == {
            "type": "arc", "from": 1, "to": 2, "color": "b",
        }
        assert rec["b_cycles"][0]["steps"][1] == {"type": "chord", "from": 2, "to": 4}


class TestSmallCases:
    def test_annulus(self):
        assert cycle_counts(Gluing.parse("(1,2)")) == (1, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_parallel_family(self, n):
        # (1,2)(3,4)...(2n-1,2n): every black arc closes alone, whites chain up
        g = normalize([(2 * i - 1, 2 * i) for i in range(1, n + 1)])
        assert cycle_counts(g) == (n, 1)

    def test_counts_at_least_one_each(self):
        for m in all_matchings(3):
            lb, lw = cycle_counts(normalize([tuple(p) for p in m]))
            assert lb >= 1 and lw >= 1


class TestAgainstCornerOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive(self, n):
        for m in all_matchings(n):
            g = normalize([tuple(p) for p in m])
            dec = trace_cycles(g)
            for c in dec.b_cycles + dec.w_cycles:  # exact types, not look-alike tuples
                kinds = [type(s) for s in c.steps]
                assert kinds == [ArcStep, ChordStep] * (len(kinds) // 2)
            traced = sorted(
                (sorted(c.arc_ids()), tuple(sorted((min(s), max(s)) for s in
                 ((x.start, x.end) for x in c.chords()))))
                for c in dec.b_cycles + dec.w_cycles
            )
            oracle = sorted(
                (sorted(arcs), chords)
                for arcs, chords in boundary_components(g.chords, n)
            )
            assert traced == oracle

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_and_surface(self, n):
        for g in enumerate_gluings(n):
            circles = boundary_components(g.chords, n)
            black = sum(1 for arcs, _ in circles if arc_is_black(min(arcs)))
            assert cycle_counts(g) == (black, len(circles) - black)
            assert surface_type(g).boundary_components == len(circles)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_oracle_circles_are_monochromatic(self, n):
        for m in all_matchings(n):
            g = normalize([tuple(p) for p in m])
            for arcs, _ in boundary_components(g.chords, n):
                assert len({arc_is_black(a) for a in arcs}) == 1


class TestCycleInvariants:
    @given(gluings())
    def test_arc_partition(self, g):
        dec = trace_cycles(g)
        black = [a for c in dec.b_cycles for a in c.arc_ids()]
        white = [a for c in dec.w_cycles for a in c.arc_ids()]
        assert sorted(black) == list(range(1, g.points, 2))
        assert sorted(white) == list(range(2, g.points + 1, 2))

    @given(gluings())
    def test_alternation_and_closure(self, g):
        for cycle in trace_cycles(g).b_cycles + trace_cycles(g).w_cycles:
            assert len(cycle.steps) % 2 == 0
            for i, step in enumerate(cycle.steps):
                expected = ArcStep if i % 2 == 0 else ChordStep
                assert isinstance(step, expected)
                if i > 0:
                    assert step.start == cycle.steps[i - 1].end
            assert cycle.steps[-1].end == cycle.steps[0].start

    @given(gluings(max_n=6), st.data())
    def test_lambda_even_rotation_invariant(self, g, data):
        m = data.draw(st.integers(min_value=1, max_value=g.n))
        assert cycle_counts(rotate(g, 2 * m)) == cycle_counts(g)

    @given(gluings())
    def test_o_diagrams_never_reverse(self, g):
        if classify(g) is not DiagramClass.O:
            return
        pts = g.points
        for cycle in trace_cycles(g).b_cycles + trace_cycles(g).w_cycles:
            for arc in cycle.arcs():
                assert arc.end == arc.start % pts + 1  # always clockwise

    @given(gluings())
    def test_each_chord_side_used_once_per_color(self, g):
        dec = trace_cycles(g)
        for cycles in (dec.b_cycles, dec.w_cycles):
            used = sorted(
                tuple(sorted((s.start, s.end)))
                for c in cycles
                for s in c.chords()
            )
            assert used == sorted(g.chords)

    def test_walk_refuses_a_partner_list_that_is_no_involution(self):
        # partner[4] = 1, but partner[1] = 2: the black walk from arc 3
        # crosses 4 -> 1 into arc 1, which closed the first b-cycle.
        with pytest.raises(AssertionError, match="arc revisited before cycle closed"):
            cycles_mod._boundary_walk([0, 2, 1, 4, 1, 6, 5], 6)


class TestSurfaceType:
    def test_annulus(self):
        s = surface_type(Gluing.parse("(1,2)"))
        assert (s.orientable, s.boundary_components, s.euler_characteristic, s.genus) \
            == (True, 2, 0, 0)

    def test_worked_example_cross_cap_three(self):
        s = surface_type(Gluing.parse(WORKED_EXAMPLE))
        assert not s.orientable
        assert s.boundary_components == 4
        assert s.euler_characteristic == -5
        assert s.genus == 3

    def test_torus_like_o_diagram(self):
        # frozen from the corner oracle: one b-cycle and one w-cycle
        s = surface_type(Gluing.parse("(1,4)(2,5)(3,6)"))
        assert s.orientable
        assert s.boundary_components == 2
        assert s.euler_characteristic == -2
        assert s.genus == 1

    @given(gluings())
    def test_classification_equation(self, g):
        s = surface_type(g)
        assert s.euler_characteristic == 1 - g.n
        assert s.orientable == (classify(g) is DiagramClass.O)
        if s.orientable:
            assert 2 - 2 * s.genus - s.boundary_components == s.euler_characteristic
        else:
            assert s.genus >= 1
            assert 2 - s.genus - s.boundary_components == s.euler_characteristic

    @pytest.mark.parametrize(
        "text, circles, message",
        [("(1,2)(3,4)", 2, "no orientable genus"), ("(1,3)(2,4)", 3, "no cross-cap count")],
        ids=["class O", "class N"],
    )
    def test_a_boundary_count_with_no_surface_raises(self, monkeypatch, text, circles, message):
        # chi = -1 at n = 2: an odd 2g for class O, no cross-cap for class N
        monkeypatch.setattr(
            cycles_mod, "_boundary_walk", lambda partner, pts: ([[1]] * circles, [])
        )
        with pytest.raises(InconsistentTopologyError, match=message):
            surface_type(Gluing.parse(text))


def random_sample(seed: int, count: int) -> list[Gluing]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        points = list(range(1, 2 * rng.randint(20, 60) + 1))
        rng.shuffle(points)
        out.append(normalize(list(zip(points[::2], points[1::2]))))
    return out


# sha256 over the newline-joined trace_cycles(g).text() of the order-n stream
TRACE_TEXT_SHA256 = {
    1: "7153e027632cc11f29492041ff181a5601135766396640b5b02d109f9a2a8ea5",
    2: "b11d1d7492faf6d95f86379b91af828211a76cd63a9cc737901c59782ff77fbe",
    3: "8275e86bf6423da2d67aca6fdd0224dee35930f586b75c7711f3205a6da88d2e",
    4: "10a462c12e9a29eef50f3d4617729bf0c2889b02cd3d14cf4a4702ddf061afdb",
    5: "79c83d5a40db634d55fbf06c45c9e17734f5095abf49c9886e0221e3de1b86c8",
    6: "e679755357f8d7d6588ba64030c807c1c8fcc7ca9dd603a06b8aaaeee1143082",
}


class TestCountsAgreeWithTrace:
    def test_large_random_diagrams(self):
        for g in random_sample(20260, 60):
            dec = trace_cycles(g)
            assert cycle_counts(g) == dec.counts
            assert surface_type(g).boundary_components == dec.total

    def test_counts_build_no_steps(self, monkeypatch):
        sample = random_sample(20261, 20) + list(enumerate_gluings(4))
        expected = [(trace_cycles(g).counts, trace_cycles(g).total) for g in sample]

        def refuse(*args, **kwargs):
            raise AssertionError("counting built a step")

        for name in ("ArcStep", "ChordStep", "Cycle"):
            monkeypatch.setattr(cycles_mod, name, refuse)
        got = [(cycle_counts(g), surface_type(g).boundary_components) for g in sample]
        assert got == expected

    def test_pinned_walk_outputs(self):
        # sha256 over one line per gluing of n = 1..6, in enumerate_gluings
        # order: its text, its cycles, its counts and its surface type
        h = hashlib.sha256()
        for n in range(1, 7):
            for g in enumerate_gluings(n):
                fields = [
                    g.text(),
                    trace_cycles(g).text().replace("\n", ";"),
                    repr(cycle_counts(g)),
                    repr(surface_type(g)),
                ]
                h.update(("|".join(fields) + "\n").encode())
        assert h.hexdigest() == "82ca5d321a3b10daa5398d3db72a8f99f27a961d4cce363a4a15777e91e7bbaa"

    @pytest.mark.parametrize("n", sorted(TRACE_TEXT_SHA256))
    def test_pinned_text(self, n):
        text = "\n".join(trace_cycles(g).text() for g in enumerate_gluings(n))
        assert hashlib.sha256(text.encode()).hexdigest() == TRACE_TEXT_SHA256[n]
