"""Spin graph correspondence and isomorphism."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from itertools import combinations

import pytest

from chord_census import (
    ColorDiagram,
    DiagramClass,
    Gluing,
    InvalidSpinError,
    classify,
    diagram_to_spin_graph,
    enumerate_gluings,
    isomorphic,
    normalize,
    rotate,
    spin_graph_isomorphic,
    spin_graph_to_diagram,
)
from chord_census.spin import SpinGraph

from oracles import all_matchings, spin_isomorphic, spin_sectors_hold


def diagrams(n):
    return [ColorDiagram(normalize([tuple(p) for p in m])) for m in all_matchings(n)]


def relabel(s: SpinGraph, mapping) -> SpinGraph:
    return SpinGraph(
        cyclic_order=tuple(mapping[h] for h in s.cyclic_order),
        loops=tuple((mapping[a], mapping[b]) for a, b in s.loops),
        black_partner={mapping[h]: mapping[p] for h, p in s.black_partner.items()},
        white_partner={mapping[h]: mapping[p] for h, p in s.white_partner.items()},
    )


def rotate_labels(s: SpinGraph, r: int) -> SpinGraph:
    order = s.cyclic_order[r:] + s.cyclic_order[:r]
    return SpinGraph(order, s.loops, s.black_partner, s.white_partner)


def step_labels(s: SpinGraph) -> SpinGraph:
    """Move every loop end and the cyclic order one half-edge on while the
    spin stays put (labels 1..2n): black sectors turn white, and the spin
    graph of g becomes that of ``rotate(g, 1)``."""
    step = {h: h % len(s.cyclic_order) + 1 for h in s.cyclic_order}
    return SpinGraph(
        tuple(step[h] for h in s.cyclic_order),
        tuple((step[a], step[b]) for a, b in s.loops),
        s.black_partner,
        s.white_partner,
    )


def swap_variants(s: SpinGraph) -> list[SpinGraph]:
    """Every graph one swap away from s: two values of either partner map,
    or two half-edges of the cyclic order."""
    out = []
    for i, j in combinations(range(len(s.cyclic_order)), 2):
        order = list(s.cyclic_order)
        order[i], order[j] = order[j], order[i]
        out.append(replace(s, cyclic_order=tuple(order)))
    for color in ("black_partner", "white_partner"):
        for h1, h2 in combinations(s.cyclic_order, 2):
            partner = dict(getattr(s, color))
            partner[h1], partner[h2] = partner[h2], partner[h1]
            out.append(replace(s, **{color: partner}))
    return out


def label_variants(d, rotations) -> list[SpinGraph]:
    """The spin graph of d under the given label rotations, then stepped."""
    s = diagram_to_spin_graph(d)
    return [rotate_labels(s, r) for r in rotations] + [step_labels(s)]


class TestRoundTrip:
    def test_single_chord(self):
        d = ColorDiagram.parse("(1,2)")
        assert spin_graph_to_diagram(diagram_to_spin_graph(d)) == d

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        for d in diagrams(n):
            s = diagram_to_spin_graph(d)
            s.validate()
            assert s.n == d.n
            assert spin_graph_to_diagram(s) == d

    def test_o_diagram_loops_pair_opposite_parity(self):
        # loops carry points A_i, A_j with i + j odd exactly for O-diagrams
        for d in diagrams(3):
            s = diagram_to_spin_graph(d)
            parity_ok = all((a + b) % 2 == 1 for a, b in s.loops)
            assert parity_ok == (classify(d) is DiagramClass.O)

    def test_spin_graphs_pinned(self):
        # sha256 of one repr per gluing for n = 1..4, in enumerate_gluings
        # order: it pins the partner maps and their insertion order
        text = "".join(
            repr(diagram_to_spin_graph(g)) + "\n" for n in range(1, 5) for g in enumerate_gluings(n)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2d257ee4a4c72c2bb73db018f8b801c8282e5d87a611208e347a038edb1067b9"
        )

    def test_reverse_composition_isomorphic(self):
        d = ColorDiagram.parse("(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)")
        s = diagram_to_spin_graph(d)
        shuffled = relabel(rotate_labels(s, 4), {i: 100 + i for i in range(1, 13)})
        back = diagram_to_spin_graph(spin_graph_to_diagram(shuffled))
        assert spin_graph_isomorphic(shuffled, back)


class TestValidation:
    def test_black_partner_must_be_involution(self):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        broken = dict(s.black_partner)
        broken[1], broken[2] = 2, 3
        with pytest.raises(InvalidSpinError):
            SpinGraph(s.cyclic_order, s.loops, broken, s.white_partner).validate()

    def test_partners_must_differ(self):
        order = (1, 2, 3, 4)
        loops = ((1, 3), (2, 4))
        same = {1: 2, 2: 1, 3: 4, 4: 3}
        with pytest.raises(InvalidSpinError):
            SpinGraph(order, loops, same, same).validate()

    def test_single_loop_shared_pair_is_legal(self):
        # 2n = 2: the two sectors share one edge pair, colored once each way
        diagram_to_spin_graph(ColorDiagram.parse("(1,2)")).validate()

    def test_loops_must_cover(self):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        with pytest.raises(InvalidSpinError):
            SpinGraph(s.cyclic_order, ((1, 2), (1, 2)), s.black_partner,
                      s.white_partner).validate()

    @pytest.mark.parametrize(
        "loops",
        [((1, 2, 3), (4,)), ((1,), (2, 3, 4)), ((1, 3), (2, 4), ()), ((1, 3), 5)],
    )
    def test_loops_must_be_pairs(self, loops):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        bad = SpinGraph(s.cyclic_order, loops, s.black_partner, s.white_partner)
        with pytest.raises(InvalidSpinError, match="loops"):
            bad.validate()
        with pytest.raises(InvalidSpinError):
            spin_graph_to_diagram(bad)
        with pytest.raises(InvalidSpinError):
            spin_graph_isomorphic(s, bad)

    def test_alternating_run_must_be_hamiltonian(self):
        # two separate alternating squares instead of one run of length 8
        order = (1, 2, 3, 4, 5, 6, 7, 8)
        black = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7}
        white = {1: 4, 4: 1, 2: 3, 3: 2, 5: 8, 8: 5, 6: 7, 7: 6}
        loops = ((1, 5), (2, 6), (3, 7), (4, 8))
        with pytest.raises(InvalidSpinError):
            SpinGraph(order, loops, black, white).validate()

    @pytest.mark.parametrize(
        "order, loops",
        [((), ()), ((1, 2, 3), ((1, 2),)), ((1, 1, 2, 3), ((1, 2), (1, 3)))],
        ids=["empty", "odd", "repeated half-edge"],
    )
    def test_order_must_list_2n_distinct_half_edges(self, order, loops):
        partner = {h: h for h in order}
        with pytest.raises(InvalidSpinError):
            SpinGraph(order, loops, partner, partner).validate()

    @pytest.mark.parametrize("color", ["black", "white"])
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_partners_must_cover_exactly(self, color, change):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        partners = {"black": dict(s.black_partner), "white": dict(s.white_partner)}
        if change == "missing":
            del partners[color][4]
        else:
            partners[color][5] = 1
        with pytest.raises(InvalidSpinError, match="must cover"):
            SpinGraph(s.cyclic_order, s.loops, partners["black"],
                      partners["white"]).validate()

    def test_partner_must_not_be_itself(self):
        order = (1, 2, 3, 4)
        black = {1: 1, 2: 3, 3: 2, 4: 4}
        white = {1: 2, 2: 1, 3: 4, 4: 3}
        with pytest.raises(InvalidSpinError):
            SpinGraph(order, ((1, 3), (2, 4)), black, white).validate()

    def test_cyclic_order_must_match_spin(self):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        scrambled = (1, 3, 2, 4)
        with pytest.raises(InvalidSpinError):
            SpinGraph(scrambled, s.loops, s.black_partner, s.white_partner).validate()

    def test_spin_message_names_the_half_edge_and_both_partners(self):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        white = dict(s.white_partner)
        white[1], white[3] = 3, 4
        bad = SpinGraph(s.cyclic_order, s.loops, s.black_partner, white)
        with pytest.raises(InvalidSpinError, match=r"^white partner of 1 is 3, but the sectors require 4$"):
            bad.validate()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_sector_rule_oracle(self, n):
        # each diagram's graph with either sector color first, and every
        # graph one swap away from it
        verdicts = set()
        for d in diagrams(n):
            s = diagram_to_spin_graph(d)
            for base in (s, rotate_labels(s, 1)):
                for t in [base] + swap_variants(base):
                    holds = spin_sectors_hold(t)
                    verdicts.add(holds)
                    if holds:
                        t.validate()
                    else:
                        with pytest.raises(InvalidSpinError):
                            t.validate()
        assert verdicts == {False, True}

    def test_unhashable_label_raises_invalid_spin(self):
        bad = SpinGraph(([1], [2]), (([1], [2]),), {}, {})
        with pytest.raises(InvalidSpinError, match="hashable"):
            bad.validate()
        with pytest.raises(InvalidSpinError, match="hashable"):
            spin_graph_to_diagram(bad)
        with pytest.raises(InvalidSpinError, match="hashable"):
            spin_graph_isomorphic(bad, diagram_to_spin_graph(ColorDiagram.parse("(1,2)")))

    def test_sector_colors_of_an_empty_order(self):
        with pytest.raises(InvalidSpinError, match="need 2n half-edges, got 0"):
            SpinGraph((), (), {}, {}).sector_colors_start_black()

    def test_sector_colors_without_a_black_partner_of_the_first_half_edge(self):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        black = dict(s.black_partner)
        del black[1]
        bad = SpinGraph(s.cyclic_order, s.loops, black, s.white_partner)
        with pytest.raises(InvalidSpinError, match="black partners must cover"):
            bad.sector_colors_start_black()


class TestIsomorphism:
    def test_even_rotation_of_labels_is_isomorphic(self):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,2)(3,4)"))
        assert spin_graph_isomorphic(s, rotate_labels(s, 2))

    def test_relabeling_is_isomorphic(self):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,5)(2,4)(3,6)"))
        t = relabel(s, {i: i * 10 for i in range(1, 7)})
        assert spin_graph_isomorphic(s, t)

    def test_different_diagrams_not_isomorphic(self):
        s1 = diagram_to_spin_graph(ColorDiagram.parse("(1,2)(3,4)"))
        s2 = diagram_to_spin_graph(ColorDiagram.parse("(1,4)(2,3)"))
        assert not spin_graph_isomorphic(s1, s2)

    @pytest.mark.parametrize(
        "sizes, rotations",
        [((1, 2, 3), None), ((4,), (0, 3))],
        ids=["n1-3", "n4"],
    )
    def test_matches_reference(self, sizes, rotations):
        # n <= 3: every label rotation, sizes mixed; n = 4: first sector
        # black, first sector white, and stepped; all ordered pairs
        graphs = [
            v
            for n in sizes
            for d in diagrams(n)
            for v in label_variants(d, rotations or range(2 * n))
        ]
        seen = set()
        for s1 in graphs:
            for s2 in graphs:
                expected = spin_isomorphic(s1, s2)
                assert spin_graph_isomorphic(s1, s2) is expected, (s1, s2)
                seen.add(expected)
        assert seen == {False, True}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_diagram_isomorphism(self, n):
        # spin_graph_isomorphic is isomorphic through the codec, so this
        # checks the codec; test_matches_reference checks the algorithm
        ds = diagrams(n)
        for d1 in ds:
            for d2 in ds:
                expected = isomorphic(d1, d2)
                got = spin_graph_isomorphic(
                    diagram_to_spin_graph(d1), diagram_to_spin_graph(d2)
                )
                assert got == expected, (d1, d2)

    def test_string_labels_relabelled_at_n30(self):
        rng = random.Random(30)
        points = list(range(1, 61))
        rng.shuffle(points)
        g = normalize(zip(points[::2], points[1::2]))
        s = diagram_to_spin_graph(g)
        names = {i: f"h{(7 * i) % 61:02d}" for i in range(1, 61)}
        t = relabel(rotate_labels(s, 14), names)
        assert spin_graph_isomorphic(s, t)
        assert spin_graph_isomorphic(t, s)
        other = diagram_to_spin_graph(rotate(g, 1))
        assert not spin_graph_isomorphic(t, other)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(1,2)(3,4)", False),
            ("(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)", False),
            ("(1,3)(2,4)", True),
            ("(1,2)(3,6)(4,5)", True),
        ],
    )
    def test_odd_label_rotation_swaps_sector_colours(self, text, expected):
        # moving every loop end and the cyclic order one half-edge on while
        # the spin stays put turns black sectors white: the result is the
        # spin graph of rotate(g, 1), isomorphic only when the diagrams are
        g = Gluing.parse(text)
        s = diagram_to_spin_graph(g)
        t = step_labels(s)
        assert not t.sector_colors_start_black()
        assert isomorphic(g, rotate(g, 1)) is expected
        assert spin_graph_isomorphic(s, t) is expected

    @pytest.mark.parametrize("side", [0, 1])
    def test_invalid_spin_in_either_argument_raises(self, side):
        s = diagram_to_spin_graph(ColorDiagram.parse("(1,3)(2,4)"))
        broken = dict(s.black_partner)
        broken[1], broken[2] = 2, 3
        bad = SpinGraph(s.cyclic_order, s.loops, broken, s.white_partner)
        args = (bad, s) if side == 0 else (s, bad)
        with pytest.raises(InvalidSpinError):
            spin_graph_isomorphic(*args)
