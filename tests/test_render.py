"""SVG rendering: determinism, structure, distinctness."""

from __future__ import annotations

import hashlib
from itertools import combinations

from chord_census import Gluing, canonical_form, enumerate_gluings, render_svg
from chord_census import render as render_mod


class TestRenderSvg:
    def test_deterministic_bytes(self):
        g = Gluing.parse("(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)")
        assert render_svg(g) == render_svg(g)

    def test_single_chord_structure(self):
        svg = render_svg(Gluing.parse("(1,2)"))
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert svg.count("<line ") == 1
        assert svg.count("<circle ") == 2  # two marked points
        assert svg.count('stroke="#000000"') == 1  # one black arc
        assert svg.count('stroke="#ffffff"') == 1  # one white arc
        assert svg.count("<text ") == 2

    def test_worked_example_structure(self):
        svg = render_svg(Gluing.parse("(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)"))
        assert svg.count("<line ") == 6
        assert svg.count("<circle ") == 12
        assert svg.count('stroke="#000000"') == 6
        assert svg.count('stroke="#ffffff"') == 6
        assert ">12</text>" in svg

    def test_injective_on_canonical_forms_small_n(self):
        for n in (1, 2, 3):
            forms = {canonical_form(g) for g in enumerate_gluings(n)}
            renders = [render_svg(g) for g in sorted(forms)]
            for a, b in combinations(renders, 2):
                assert a != b

    def test_clockwise_from_top(self):
        svg = render_svg(Gluing.parse("(1,3)(2,4)"))
        # point 1 sits at 12 o'clock, point 2 at 3 o'clock (x grows rightwards)
        assert '<circle cx="220.00" cy="50.00"' in svg
        assert '<circle cx="390.00" cy="220.00"' in svg


# Exact output, frozen so that refactors of the renderer cannot drift.
N3_SVG_LINES = [
    '<svg xmlns="http://www.w3.org/2000/svg" width="440" height="440" viewBox="0 0 440 440">',
    '<rect width="440" height="440" fill="#d9d9d9"/>',
    '<path d="M 220.00 50.00 A 170 170 0 0 1 367.22 135.00" fill="none" stroke="#000000" stroke-width="8"/>',
    '<path d="M 367.22 135.00 A 170 170 0 0 1 367.22 305.00" fill="none" stroke="#ffffff" stroke-width="8"/>',
    '<path d="M 367.22 305.00 A 170 170 0 0 1 220.00 390.00" fill="none" stroke="#000000" stroke-width="8"/>',
    '<path d="M 220.00 390.00 A 170 170 0 0 1 72.78 305.00" fill="none" stroke="#ffffff" stroke-width="8"/>',
    '<path d="M 72.78 305.00 A 170 170 0 0 1 72.78 135.00" fill="none" stroke="#000000" stroke-width="8"/>',
    '<path d="M 72.78 135.00 A 170 170 0 0 1 220.00 50.00" fill="none" stroke="#ffffff" stroke-width="8"/>',
    '<line x1="220.00" y1="50.00" x2="220.00" y2="390.00" stroke="#4a6a8a" stroke-width="2"/>',
    '<line x1="367.22" y1="135.00" x2="72.78" y2="135.00" stroke="#4a6a8a" stroke-width="2"/>',
    '<line x1="367.22" y1="305.00" x2="72.78" y2="305.00" stroke="#4a6a8a" stroke-width="2"/>',
    '<circle cx="220.00" cy="50.00" r="4" fill="#bb3333"/>',
    '<text x="220.00" y="24.00" font-family="monospace" font-size="14" text-anchor="middle" dominant-baseline="middle">1</text>',
    '<circle cx="367.22" cy="135.00" r="4" fill="#bb3333"/>',
    '<text x="389.74" y="122.00" font-family="monospace" font-size="14" text-anchor="middle" dominant-baseline="middle">2</text>',
    '<circle cx="367.22" cy="305.00" r="4" fill="#bb3333"/>',
    '<text x="389.74" y="318.00" font-family="monospace" font-size="14" text-anchor="middle" dominant-baseline="middle">3</text>',
    '<circle cx="220.00" cy="390.00" r="4" fill="#bb3333"/>',
    '<text x="220.00" y="416.00" font-family="monospace" font-size="14" text-anchor="middle" dominant-baseline="middle">4</text>',
    '<circle cx="72.78" cy="305.00" r="4" fill="#bb3333"/>',
    '<text x="50.26" y="318.00" font-family="monospace" font-size="14" text-anchor="middle" dominant-baseline="middle">5</text>',
    '<circle cx="72.78" cy="135.00" r="4" fill="#bb3333"/>',
    '<text x="50.26" y="122.00" font-family="monospace" font-size="14" text-anchor="middle" dominant-baseline="middle">6</text>',
    '</svg>',
]
N20_GLUING = (
    "(1,33)(2,11)(3,25)(4,5)(6,30)(7,21)(8,39)(9,26)(10,17)(12,18)"
    "(13,40)(14,15)(16,19)(20,22)(23,28)(24,38)(27,34)(29,37)(31,35)(32,36)"
)
N20_SVG_BYTES = 13184
N20_SVG_SHA256 = "6386647c78d200bf5ab05b68110263bd6ae2659c06be2636b1302d1301d8ef05"


class TestPinnedBytes:
    def test_n3(self):
        svg = render_svg(Gluing.parse("(1,4)(2,6)(3,5)"))
        assert svg == "\n".join(N3_SVG_LINES) + "\n"

    def test_n20(self):
        data = render_svg(Gluing.parse(N20_GLUING)).encode()
        assert len(data) == N20_SVG_BYTES
        assert hashlib.sha256(data).hexdigest() == N20_SVG_SHA256

    def test_frame_cache_across_orders(self):
        n3 = "\n".join(N3_SVG_LINES) + "\n"
        render_mod._frame.cache_clear()
        assert render_svg(Gluing.parse("(1,4)(2,6)(3,5)")) == n3  # miss
        data = render_svg(Gluing.parse(N20_GLUING)).encode()
        assert len(data) == N20_SVG_BYTES
        assert hashlib.sha256(data).hexdigest() == N20_SVG_SHA256
        assert render_svg(Gluing.parse("(1,4)(2,6)(3,5)")) == n3  # hit
        assert render_mod._frame.cache_info().hits == 1

    def test_frame_cache_is_bounded(self):
        assert render_mod._frame.cache_info().maxsize is not None
