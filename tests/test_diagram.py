"""Gluing normal form, rotation, classification and canonical forms."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chord_census import (
    ColorDiagram,
    DiagramClass,
    DuplicateIndexError,
    Gluing,
    GluingParseError,
    InvalidArgumentError,
    InvalidGluingError,
    MissingIndexError,
    SelfPairError,
    SizeMismatchError,
    canonical_form,
    classify,
    isomorphic,
    normalize,
    recolor_shift,
    rotate,
)

from chord_census.diagram import _arc_pairings, _span_chords
from oracles import all_matchings, canonical_matching, matching_key, rotate_matching, span_word


def chords_of(text: str) -> Gluing:
    return Gluing.parse(text)


@st.composite
def gluings(draw, max_n: int = 8) -> Gluing:
    n = draw(st.integers(min_value=1, max_value=max_n))
    points = list(range(1, 2 * n + 1))
    perm = draw(st.permutations(points))
    return normalize(list(zip(perm[::2], perm[1::2])))


class TestNormalize:
    def test_worked_example_normalizes(self):
        pairs = {(8, 1), (2, 4), (3, 7), (12, 5), (6, 9), (10, 11)}
        assert normalize(pairs).text() == "(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)"
        assert str(normalize(pairs)) == "(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)"

    def test_single_chord(self):
        assert normalize([(2, 1)]).chords == ((1, 2),)

    def test_already_normal(self):
        assert normalize([(1, 3), (2, 4)]).chords == ((1, 3), (2, 4))

    def test_idempotent(self):
        g = normalize([(5, 2), (1, 6), (4, 3)])
        assert normalize(g.chords) == g

    def test_self_pair_rejected(self):
        with pytest.raises(SelfPairError):
            normalize([(1, 1), (2, 3)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateIndexError):
            normalize([(1, 2), (2, 3)])

    def test_missing_rejected(self):
        with pytest.raises(MissingIndexError):
            normalize([(1, 2), (3, 5)])

    def test_out_of_range_rejected(self):
        with pytest.raises(MissingIndexError):
            normalize([(1, 5)])

    def test_no_pairs_rejected(self):
        with pytest.raises(InvalidGluingError):
            normalize([])

    # a point past Python's 4,300-digit int-to-str limit is named without its digits
    @pytest.mark.parametrize(
        "pairs, error",
        [
            ([(1, 10**5000)], MissingIndexError),
            ([(10**5000, 10**5000)], SelfPairError),
            ([(1, 2), (10**5000, 3)], MissingIndexError),
            ([(10**5000, 1), (10**5000, 2)], DuplicateIndexError),
        ],
        ids=["stray", "self pair", "stray after pair", "duplicate"],
    )
    def test_point_past_the_int_digit_limit_rejected(self, pairs, error):
        with pytest.raises(error, match="16610-bit integer"):
            normalize(pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1.7, 2.2)], [(1.0, 2.0)], [("1", "2")], [(1, 4), (2, "3")], [(None, 2)],
            [(True, 2)],
        ],
        ids=["fractions", "whole floats", "strings", "one string", "none", "bool"],
    )
    def test_non_integer_points_rejected(self, pairs):
        with pytest.raises(InvalidGluingError, match="integer"):
            normalize(pairs)

    @pytest.mark.parametrize(
        "pairs",
        [[(1, 2, 3)], [(1,)], [(1, 2), (3, 4, 5)]],
        ids=["triple", "single", "triple after pair"],
    )
    def test_pairs_of_wrong_length_rejected(self, pairs):
        with pytest.raises(InvalidGluingError):
            normalize(pairs)

    def test_numpy_integer_points_accepted(self):
        g = normalize([(np.int64(4), np.int8(1)), (np.uint16(2), 3)])
        assert g.chords == ((1, 4), (2, 3))
        assert all(type(x) is int for x in g.flattened())

    @given(gluings())
    def test_normalize_injective_on_matchings(self, g):
        # same matching in scrambled pair order normalizes identically
        scrambled = [(b, a) for a, b in reversed(g.chords)]
        assert normalize(scrambled) == g


class TestParsing:
    def test_whitespace_tolerated(self):
        assert Gluing.parse(" (1,4) ( 2 , 3 ) ").text() == "(1,4)(2,3)"

    @pytest.mark.parametrize(
        "bad",
        [
            "", "1,2", "(1,2", "(1,2)x(3,4)", "(a,b)",
            pytest.param(f"(1,{'9' * 5000})", id="point past the int-to-str digit limit"),
        ],
    )
    def test_garbage_rejected(self, bad):
        with pytest.raises(GluingParseError):
            Gluing.parse(bad)

    def test_json_round_trip(self):
        g = chords_of("(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)")
        assert Gluing.from_json(g.to_json_dict()) == g
        assert g.to_json_dict() == {
            "n": 6,
            "chords": [[1, 8], [2, 4], [3, 7], [5, 12], [6, 9], [10, 11]],
        }

    def test_json_n_mismatch(self):
        with pytest.raises(GluingParseError):
            Gluing.from_json({"n": 3, "chords": [[1, 2]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": True, "chords": [[1, 2]]},
            {"n": 1.0, "chords": [[1, 2]]},
            '{"n": "1", "chords": [[1, 2]]}',
        ],
        ids=["bool", "float", "string"],
    )
    def test_json_non_integer_n_rejected(self, obj):
        with pytest.raises(GluingParseError):
            Gluing.from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"chords": [[1.7, 2.2]]},
            {"chords": [[True, 2]]},
            '{"chords": [[1, "2"]]}',
            {"chords": [[1, "a"]]},
            {"chords": [[None, 2]]},
        ],
        ids=["float", "bool", "string", "letter", "none"],
    )
    def test_json_non_integer_points_rejected(self, obj):
        with pytest.raises(GluingParseError):
            Gluing.from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [f'{{"chords": [[1, {"9" * 5000}]]}}', f'{{"n": {"9" * 5000}, "chords": [[1, 2]]}}',
         {"n": 10**5000, "chords": [[1, 2]]}],
        ids=["point text", "n text", "n"],
    )
    def test_json_past_the_int_digit_limit_rejected(self, obj):
        with pytest.raises(GluingParseError) as exc:
            Gluing.from_json(obj)
        assert "9" * 100 not in str(exc.value)

    @pytest.mark.parametrize(
        "obj", ['{"chords": [[1, 2]]', "chords", "[[1, 2]]", '"(1,2)"', [[1, 2]], None],
        ids=["unclosed", "bare-word", "list-text", "string-text", "list", "none"],
    )
    def test_json_that_is_not_an_object_rejected(self, obj):
        with pytest.raises(GluingParseError):
            Gluing.from_json(obj)

    @pytest.mark.parametrize("obj", [{"chords": []}, {"n": 0, "chords": []}, '{"chords": []}'])
    def test_json_without_chords_rejected(self, obj):
        with pytest.raises(InvalidGluingError):
            Gluing.from_json(obj)

    @given(gluings())
    def test_text_round_trip(self, g):
        assert Gluing.parse(g.text()) == g


class TestClassify:
    def test_single_chord_is_o(self):
        assert classify(chords_of("(1,2)")) is DiagramClass.O

    def test_worked_example_is_n(self):
        # contains (2,4), both endpoints even
        g = chords_of("(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)")
        assert classify(g) is DiagramClass.N

    def test_parallel_chords_are_o(self):
        assert classify(chords_of("(1,2)(3,4)(5,6)")) is DiagramClass.O

    def test_color_diagram_wrapper(self):
        d = ColorDiagram.parse("(1,3)(2,4)")
        assert d.diagram_class() is DiagramClass.N
        assert str(d) == "(1,3)(2,4)"

    @given(gluings(), st.data())
    def test_class_survives_any_rotation(self, g, data):
        k = data.draw(st.integers(min_value=1, max_value=g.points))
        assert classify(rotate(g, k)) is classify(g)


class TestRotate:
    def test_full_turn_identity(self):
        g = chords_of("(1,4)(2,3)")
        assert rotate(g, 4) == g

    def test_shift_by_two(self):
        # frozen from the index map 1->3, 2->4, 3->5, 4->6, 5->1, 6->2
        g = chords_of("(1,2)(3,6)(4,5)")
        assert rotate(g, 2).text() == "(1,6)(2,5)(3,4)"
        assert rotate(rotate(g, 2), 2).text() == "(1,4)(2,3)(5,6)"

    def test_single_chord_fixed(self):
        assert rotate(chords_of("(1,2)"), 2) == chords_of("(1,2)")

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            rotate(chords_of("(1,2)"), 0)
        with pytest.raises(ValueError):
            rotate(chords_of("(1,2)"), 3)

    @pytest.mark.parametrize("k", [2.0, 1.5, "2", None, True])
    def test_non_integer_shift_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match="integer"):
            rotate(chords_of("(1,3)(2,4)"), k)

    def test_numpy_integer_shift_accepted(self):
        g = chords_of("(1,2)(3,6)(4,5)")
        rotated = rotate(g, np.int64(2))
        assert rotated == rotate(g, 2)
        assert all(type(x) is int for x in rotated.flattened())

    @given(gluings(), st.data())
    def test_matches_index_map_oracle(self, g, data):
        k = data.draw(st.integers(min_value=1, max_value=g.points))
        rotated = rotate(g, k)
        oracle = rotate_matching(
            frozenset(frozenset(c) for c in g.chords), k, g.points
        )
        assert matching_key(oracle) == rotated.chords

    @given(gluings(), st.data())
    def test_group_action_composition(self, g, data):
        pts = g.points
        j = data.draw(st.integers(min_value=1, max_value=pts))
        k = data.draw(st.integers(min_value=1, max_value=pts))
        combined = (j + k - 1) % pts + 1
        assert rotate(rotate(g, j), k) == rotate(g, combined)

    @given(gluings())
    def test_full_turn_identity_property(self, g):
        assert rotate(g, g.points) == g


class TestSpanWord:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_span_chords_rebuild_every_gluing(self, n):
        for m in all_matchings(n):
            assert _span_chords(span_word(m, 2 * n)) == matching_key(m)


class TestCanonicalForm:
    def test_cross_diagram_is_its_own_form(self):
        # (1,4)(2,3) is fixed by the shift 2, so the orbit is a singleton
        g = chords_of("(1,4)(2,3)")
        assert canonical_form(g) == g

    def test_single_chord(self):
        g = chords_of("(1,2)")
        assert canonical_form(g) == g

    @given(gluings(max_n=6), st.data())
    def test_constant_on_orbits(self, g, data):
        m = data.draw(st.integers(min_value=1, max_value=g.n))
        assert canonical_form(rotate(g, 2 * m)) == canonical_form(g)

    @given(gluings(max_n=6))
    def test_picks_orbit_member_and_matches_oracle(self, g):
        form = canonical_form(g)
        orbit = {rotate(g, 2 * m) for m in range(1, g.n + 1)}
        assert form in orbit
        oracle_key = canonical_matching(
            frozenset(frozenset(c) for c in g.chords), g.points, even_only=True
        )
        assert form.chords == oracle_key

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_gluing_matches_oracle(self, n):
        for m in all_matchings(n):
            assert canonical_form(normalize(m)).chords == canonical_matching(
                m, 2 * n, even_only=True
            )

    @staticmethod
    def assert_matches_oracle(g):
        oracle_key = canonical_matching(
            frozenset(frozenset(c) for c in g.chords), g.points, even_only=True
        )
        assert canonical_form(g).chords == oracle_key

    @pytest.mark.parametrize("n", range(7, 41))
    def test_random_gluings_match_oracle(self, n):
        rng = random.Random(1000 + n)
        for _ in range(3):
            points = list(range(1, 2 * n + 1))
            rng.shuffle(points)
            self.assert_matches_oracle(normalize(zip(points[::2], points[1::2])))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 25, 40])
    def test_tie_heavy_gluings_match_oracle(self, n):
        # every odd-point span is equal, so every rotation is a candidate
        parallel = normalize([(2 * i + 1, 2 * i + 2) for i in range(n)])
        diameters = normalize([(i, i + n) for i in range(1, n + 1)])
        for g in (parallel, diameters, rotate(parallel, 1), rotate(diameters, 1)):
            self.assert_matches_oracle(g)
        assert canonical_form(parallel) == parallel

    @pytest.mark.parametrize("n, period", [(8, 2), (12, 3), (30, 5), (40, 8)])
    def test_o_diagrams_with_stabilizer_match_oracle(self, n, period):
        # a random O-block of `period` chords repeated n/period times is
        # fixed by the even rotation 2*period
        rng = random.Random(n * period)
        pts = 2 * n
        evens = list(range(2, 2 * period + 1, 2))
        rng.shuffle(evens)
        block = [(2 * j + 1, evens[j] + 2 * rng.randrange(n // period) * period)
                 for j in range(period)]
        g = normalize(
            ((a + 2 * r * period - 1) % pts + 1, (b + 2 * r * period - 1) % pts + 1)
            for r in range(n // period)
            for a, b in block
        )
        assert classify(g) is DiagramClass.O
        assert rotate(g, 2 * period) == g
        self.assert_matches_oracle(g)

    def test_large_even_rotations_share_the_form(self):
        rng = random.Random(60)
        points = list(range(1, 121))
        rng.shuffle(points)
        g = normalize(zip(points[::2], points[1::2]))
        for m in (1, 17, 59, 60):
            assert isomorphic(g, rotate(g, 2 * m))

    def test_large_non_isomorphic_pair(self):
        # rotating by one step swaps the colours; this gluing's pattern
        # does not survive that, so the two are different colour diagrams
        rng = random.Random(30)
        points = list(range(1, 61))
        rng.shuffle(points)
        g = normalize(zip(points[::2], points[1::2]))
        h = rotate(g, 1)
        assert h not in {rotate(g, 2 * m) for m in range(1, 31)}
        assert not isomorphic(g, h)


class TestIsomorphic:
    def test_reflexive(self):
        assert isomorphic(chords_of("(1,2)"), chords_of("(1,2)"))

    def test_n2_parallel_vs_cross(self):
        # both orbits are singletons at n=2, so these are not isomorphic
        assert not isomorphic(chords_of("(1,2)(3,4)"), chords_of("(1,4)(2,3)"))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            isomorphic(chords_of("(1,2)"), chords_of("(1,2)(3,4)"))

    @given(gluings(max_n=6), st.data())
    def test_even_rotations_are_isomorphisms(self, g, data):
        m = data.draw(st.integers(min_value=1, max_value=g.n))
        assert isomorphic(g, rotate(g, 2 * m))

    @given(gluings(max_n=5), gluings(max_n=5))
    @settings(max_examples=60)
    def test_agrees_with_canonical_equality(self, g1, g2):
        if g1.n != g2.n:
            return
        assert isomorphic(g1, g2) == (canonical_form(g1) == canonical_form(g2))


class TestRecolorShift:
    def test_single_chord(self):
        g = chords_of("(1,2)")
        assert recolor_shift(g) == g

    def test_parallel_pair(self):
        assert recolor_shift(chords_of("(1,2)(3,4)")).text() == "(1,4)(2,3)"

    def test_preserves_wrapper_type(self):
        d = ColorDiagram.parse("(1,2)(3,4)")
        out = recolor_shift(d)
        assert isinstance(out, ColorDiagram)
        assert out.gluing.text() == "(1,4)(2,3)"

    @given(gluings(max_n=5))
    def test_two_n_applications_are_identity(self, g):
        cur = g
        for _ in range(g.points):
            cur = recolor_shift(cur)
        assert cur == g


class TestArcPairings:
    def test_six_points(self):
        assert _arc_pairings(6) == ((0, 2, 1, 4, 3, 6, 5), (0, 6, 3, 2, 5, 4, 1))

    @pytest.mark.parametrize("pts", [2, 4, 6, 10, 40])
    def test_pairings_are_the_pattern_arcs(self, pts):
        # black arcs (i, i+1) for odd i, white for even i, (2n, 1) white
        black, white = _arc_pairings(pts)
        for pairing, parity in ((black, 1), (white, 0)):
            assert len(pairing) == pts + 1 and pairing[0] == 0
            assert all(pairing[pairing[i]] == i for i in range(1, pts + 1))
            arcs = {frozenset((i, i % pts + 1)) for i in range(1, pts + 1) if i % 2 == parity}
            assert {frozenset((i, pairing[i])) for i in range(1, pts + 1)} == arcs

    def test_cached_per_point_count_as_tuples(self):
        assert _arc_pairings(8) is _arc_pairings(8)
        assert all(type(p) is tuple for p in _arc_pairings(8))
        assert _arc_pairings.cache_info().maxsize == 64
