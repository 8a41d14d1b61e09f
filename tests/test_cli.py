"""Command-line interface: outputs, formats, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from chord_census import (
    DiagramClass,
    EvenInputError,
    Gluing,
    InvalidArgumentError,
    InvalidSpinError,
    NonDivisorError,
    NotPrimeError,
    SpinGraph,
    burnside_check,
    classify,
    count_fixed,
    counting,
    enumerate_gluings,
    enumerate_o_gluings,
    orbit_census,
    rotate,
)
from chord_census.cli import main

WORKED_EXAMPLE = "(1,8)(2,4)(3,7)(5,12)(6,9)(10,11)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Exact stdout of each command that prints one result: the line itself
# where it is one line, else the sha256 of the whole output.
GOLDEN = [
    (["count", "--n", "5"], "text", "n=5 class=all total_gluings=945 classes=193\n"),
    (["count", "--n", "5"], "json",
     "46eba2e6f532e5b2f153faf20105b30626bcc5783da023e388382a4854bebabd"),
    (["table", "--from", "2", "--to", "12"], "text",
     "6644654c460e590298091894a52eeb0a740d80d83c6411c0f0e94a6eb03a15cf"),
    (["table", "--from", "2", "--to", "12"], "json",
     "72061ef2bf20098c83b287673b2917a5af90d6991e036b9c77f1dac0c0f0df70"),
    (["orbits", "--n", "4"], "text",
     "n=4 class=all group_order=4 total_gluings=105 orbit_count=35\n"),
    (["orbits", "--n", "4"], "json",
     "01fe0094b18ab6a8335e9dff6d5a52a02ecbdc6e213acfc8274dffed91bb9c9d"),
    (["orbits", "--n", "4", "--orbit-reps"], "text",
     "7ec2cadd00eab5909793596c62f1bfcab3a886bc2fbc786ff3d9308e321befcc"),
    (["orbits", "--n", "4", "--orbit-reps"], "json",
     "c5bc4e368ac1220c6ed4331afabe9f6b3702738d13849d10ec26cf31860f6f57"),
    (["cycles", WORKED_EXAMPLE], "text",
     "2de891c9cfc19921b2cf02727d4df9bf8c9ed5e0ed09afd88aca26381f5329d0"),
    (["cycles", WORKED_EXAMPLE], "json",
     "119cfbe02566ae5972c276f16cc4618eacfdfff45bd99f88066e1212ebc8ecef"),
    (["canon", "(1,2)(3,6)(4,5)"], "text", "(1,2)(3,6)(4,5)\n"),
    (["canon", "(1,2)(3,6)(4,5)"], "json",
     "e11234940d5d52d540356551c363d10a014177b416663485ca7014ad2c8c2cb6"),
    (["iso", "(1,2)(3,4)", "(1,4)(2,3)"], "text", "false\n"),
    (["iso", "(1,2)(3,4)", "(1,4)(2,3)"], "json",
     "1381d1e42172ec633fafa30e539b7c3a8dc20c57799eb3bad40a29f46e4a2717"),
    (["classify", "(1,3)(2,4)"], "text", "N\n"),
    (["classify", "(1,3)(2,4)"], "json",
     "44ee1f3e0aa66e2dc6f7cfc2e642ddd8f441bd8a6ef714fc7f5a583336382334"),
    (["verify", "--to", "4"], "text",
     "7285fcc00220c721929fc515e8b736fddcdf0ddd0f25004206ea098dabfcce48"),
    (["verify", "--to", "4"], "json",
     "90b94aa791b9c3a28e24c43d684af6c7cdbf13e216f7c54ac40009d2715c3daa"),
]


@pytest.mark.parametrize(
    "argv, fmt, expected", GOLDEN, ids=[" ".join([*a, "--format", f]) for a, f, _ in GOLDEN]
)
def test_golden_stdout(capsys, argv, fmt, expected):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if out.count("\n") == 1:
        assert out == expected
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize(
    "argv", [["count", "--n", "5"], ["orbits", "--n", "4"], ["cycles", WORKED_EXAMPLE]]
)
def test_json_formats_no_text_line(capsys, monkeypatch, argv):
    import chord_census.cli as cli_mod

    def no_text(record):
        raise AssertionError("text line formatted for JSON output")

    monkeypatch.setattr(cli_mod, "_key_values", no_text)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)


@contextlib.contextmanager
def no_digit_limit():
    """Lift Python's int-to-str digit limit, then give it back."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestTable:
    def test_csv_reproduces_reference_columns(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "2", "--to", "11",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,total,o_total,d_star,d_double_star,d_o,d_n"
        dds = [int(line.split(",")[4]) for line in lines[1:]]
        assert dds == [3, 7, 35, 193, 1799, 19311, 254143, 3828921,
                       65486307, 1249937335]
        d_o = [int(line.split(",")[5]) for line in lines[1:]]
        assert d_o == [2, 4, 10, 28, 136, 726, 5100, 40362, 363288, 3628810]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "2", "--to", "3")
        assert code == 0
        assert out.splitlines()[0].split() == [
            "n", "total", "o_total", "d_star", "d_double_star", "d_o", "d_n",
        ]

    def test_prints_rows_past_the_int_digit_limit(self, capsys):
        # (2999)!! has 4,597 digits, past Python's default limit of 4,300
        # for converting an int to a string
        code, out, _ = run(capsys, "table", "--from", "1500", "--to", "1500",
                           "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert out.count("\n") == 2
        total = row.split(",")[header.split(",").index("total")]
        assert len(total) > 4300
        with no_digit_limit():
            assert int(total) == counting.double_factorial(2999)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_leaves_the_int_digit_limit_as_it_was(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            for argv in (
                ["table", "--from", "1500", "--to", "1500", "--format", "csv"],
                ["count", "--n", "1500"],
                ["count", "--n", "1500", "--format", "json"],
            ):
                code, _, _ = run(capsys, *argv)
                assert code == 0
                assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(limit)

    def test_json_sorted_keys(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "2", "--to", "2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["d_double_star"] == 3
        assert out == out  # deterministic single call sanity
        again = run(capsys, "table", "--from", "2", "--to", "2", "--format", "json")
        assert again[1] == out


class TestCount:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5", "--class", "o")
        assert code == 0
        assert out.strip() == "n=5 class=o total_gluings=120 classes=28"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--class", "n",
                           "--format", "json")
        assert json.loads(out) == {
            "class": "n", "classes": 3, "n": 3, "total_gluings": 9,
        }

    # (2n-1)!! first passes Python's 4,300-digit int-to-str limit at
    # n = 1424, and n! at n = 1559
    @pytest.mark.parametrize(
        "n, cls, total",
        [
            (1424, "all", lambda n: counting.double_factorial(2 * n - 1)),
            (1424, "n", lambda n: counting.double_factorial(2 * n - 1) - math.factorial(n)),
            (1559, "o", math.factorial),
            (1500, "all", lambda n: counting.double_factorial(2 * n - 1)),
        ],
        ids=["all 1424", "n 1424", "o 1559", "all 1500"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prints_counts_past_the_int_digit_limit(self, capsys, n, cls, total, fmt):
        code, out, err = run(capsys, "count", "--n", str(n), "--class", cls, "--format", fmt)
        assert (code, err) == (0, "")
        with no_digit_limit():
            record = json.loads(out) if fmt == "json" else dict(w.split("=") for w in out.split())
            assert int(record["total_gluings"]) == total(n)


class TestEnumerate:
    def test_stream_round_trips(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 15
        parsed = [Gluing.parse(line) for line in lines]
        assert [g.text() for g in parsed] == lines

    def test_class_filter(self, capsys):
        _, out_o, _ = run(capsys, "enumerate", "--n", "3", "--class", "o")
        assert len(out_o.strip().split("\n")) == 6
        _, out_n, _ = run(capsys, "enumerate", "--n", "3", "--class", "n")
        assert len(out_n.strip().split("\n")) == 9

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_n_is_the_stream_without_o(self, capsys, n, fmt):
        _, out, _ = run(capsys, "enumerate", "--n", str(n), "--class", "n", "--format", fmt)
        kept = [g for g in enumerate_gluings(n) if classify(g) is DiagramClass.N]
        if fmt == "json":
            expected = [json.dumps(g.to_json_dict(), sort_keys=True) for g in kept]
        else:
            expected = [g.text() for g in kept]
        assert out == "".join(line + "\n" for line in expected)

    def test_json_lines(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert rows[0] == {"chords": [[1, 2], [3, 4]], "n": 2}

    def test_progress_every_million_gluings(self, capsys, monkeypatch):
        import chord_census.cli as cli_mod

        g = Gluing.parse("(1,2)")
        monkeypatch.setattr(cli_mod, "_class_gluings", lambda n, cls: itertools.repeat(g, 10**6))
        code, out, err = run(capsys, "enumerate", "--n", "1", "--progress")
        assert code == 0 and out.count("\n") == 10**6
        assert err.endswith("enumerated=1000000\n")


class TestOrbits:
    def test_census_line(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "4")
        assert code == 0
        assert out.strip() == (
            "n=4 class=all group_order=4 total_gluings=105 orbit_count=35"
        )

    def test_orbit_reps(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "2", "--orbit-reps")
        lines = out.strip().split("\n")
        assert lines[0].endswith("orbit_count=3")
        assert lines[1:] == [
            "(1,2)(3,4) size=1 stabilizer=2",
            "(1,3)(2,4) size=1 stabilizer=2",
            "(1,4)(2,3) size=1 stabilizer=2",
        ]

    def test_full_group(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "4", "--full-group")
        assert "group_order=8" in out
        assert "orbit_count=18" in out

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "orbits", "--n", "6", "--budget", "100")
        assert code == 1
        assert "budget" in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORD_CENSUS_BUDGET", "100")
        code, _, err = run(capsys, "orbits", "--n", "6")
        assert code == 1 and "budget" in err

    def test_progress_on_stderr(self, capsys):
        code, out, err = run(capsys, "orbits", "--n", "3", "--progress")
        assert code == 0
        assert "processed=" in err and "processed=" not in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "orbits", "--n", "3", "--class", "n",
                        "--format", "json")
        record = json.loads(out)
        assert record["orbit_count"] == 3
        assert record["total_gluings"] == 9


class TestDiagramCommands:
    def test_cycles_worked_example(self, capsys):
        code, out, _ = run(capsys, "cycles", WORKED_EXAMPLE)
        assert code == 0
        assert "Cb1=[1,2](2,4)[4,3](3,7)[7,8](8,1)" in out
        assert "lambda_b=2 lambda_w=2 lambda_total=4" in out
        assert "orientable=false" in out

    def test_cycles_json(self, capsys):
        _, out, _ = run(capsys, "cycles", "(1,2)", "--format", "json")
        record = json.loads(out)
        assert record["lambda_total"] == 2
        assert record["surface"]["genus"] == 0

    def test_iso_true(self, capsys):
        code, out, _ = run(capsys, "iso", "(1,2)", "(1,2)")
        assert code == 0 and out.strip() == "true"

    def test_iso_false_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "iso", "(1,2)(3,4)", "(1,4)(2,3)")
        assert code == 0 and out.strip() == "false"

    def test_iso_size_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "iso", "(1,2)", "(1,2)(3,4)")
        assert code == 2 and "error" in err

    def test_canon(self, capsys):
        from chord_census import canonical_form

        code, out, _ = run(capsys, "canon", "(1,2)(3,6)(4,5)")
        assert code == 0
        assert out.strip() == canonical_form(Gluing.parse("(1,2)(3,6)(4,5)")).text()

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "(1,2)(3,4)(5,6)")
        assert code == 0 and out.strip() == "O"
        code, out, _ = run(capsys, "classify", "(1,3)(2,4)")
        assert out.strip() == "N"

    def test_malformed_gluing_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "(1,2")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "cycles", "(1,1)")
        assert code == 2


class TestRender:
    def test_svg_on_stdout(self, capsys):
        code, out, _ = run(capsys, "render", "(1,2)")
        assert code == 0
        assert out.startswith("<svg ")
        assert out.count("<line ") == 1


class TestVerify:
    def test_passes_on_correct_build(self, capsys):
        code, out, _ = run(capsys, "verify", "--to", "5")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].startswith("PASS")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--to", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(check["ok"] for check in report["checks"])

    def test_depth_eight_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--to", "8")
        assert code == 0
        assert "FAIL" not in out

    def test_seeded_mutation_fails(self, capsys, monkeypatch):
        # corrupt one counting formula; verify must notice and exit 1
        import chord_census.counting as counting_mod

        original = counting_mod.o_classes
        monkeypatch.setattr(counting_mod, "o_classes", lambda n: original(n) + 1)
        code, out, _ = run(capsys, "verify", "--to", "3")
        assert code == 1
        assert "FAIL" in out


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2

    def test_bad_class_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "3", "--class", "x"])
        assert exc.value.code == 2


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--n", "0"],
            ["orbits", "--n", "3", "--workers", "0"],
            ["orbits", "--n", "3", "--budget", "0"],
            ["orbits", "--n", "33", "--budget", "10"],
            ["count", "--n", "0"],
            ["table", "--from", "3", "--to", "2"],
            ["enumerate", "--n", "0"],
            ["verify", "--to", "1"],
            ["verify", "--to", "-3", "--workers", "0"],
            ["canon", f"(1,{'9' * 5000})"],  # a point past the int-to-str digit limit
        ],
    )
    def test_bad_argument_values_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and out == ""

    def test_bad_budget_variable_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORD_CENSUS_BUDGET", "lots")
        code, _, err = run(capsys, "orbits", "--n", "3")
        assert code == 2 and "CHORD_CENSUS_BUDGET" in err

    def test_closed_stdout_exits_0(self, monkeypatch):
        # a reader that stops early, as in `chord-census enumerate ... | head`
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["enumerate", "--n", "3"]) == 0

    def test_internal_value_error_propagates(self, capsys, monkeypatch):
        # a ValueError from inside the package is a bug, not bad input
        import chord_census.cli as cli_mod

        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli_mod, "orbit_census", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["orbits", "--n", "3"])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: next(enumerate_gluings(0)),
            lambda: next(enumerate_o_gluings(0)),
            lambda: orbit_census(3, budget=0),
            lambda: orbit_census(0),
            lambda: orbit_census(3, workers=0),
            lambda: orbit_census(33, budget=10),
            lambda: count_fixed(3, 3),
            lambda: counting.euler_phi(0),
            lambda: counting.total_gluings(0),
            lambda: counting.build_table(0, 3),
            lambda: rotate(Gluing.parse("(1,2)"), 3),
            lambda: enumerate_gluings(0),
            lambda: enumerate_o_gluings(0),
            lambda: counting.total_gluings(-(10**5000)),
            lambda: rotate(Gluing.parse("(1,2)"), Fraction(10**5000)),
        ],
    )
    def test_argument_checks_raise_package_error(self, call):
        with pytest.raises(InvalidArgumentError) as exc:
            call()
        assert isinstance(exc.value, ValueError)

    def test_budget_variable_raises_package_error(self, monkeypatch):
        monkeypatch.setenv("CHORD_CENSUS_BUDGET", "lots")
        with pytest.raises(InvalidArgumentError, match="CHORD_CENSUS_BUDGET"):
            orbit_census(3)

    # Every public call given an integer past Python's 4,300-digit int-to-str
    # limit raises the package error that a small bad value raises; the
    # message names the integer by its bit length, never by its digits.
    @pytest.mark.parametrize(
        "call, small, error",
        [
            (lambda v: rotate(Gluing.parse("(1,2)"), v), 3, InvalidArgumentError),
            (lambda v: count_fixed(3, v), 8, InvalidArgumentError),
            (lambda v: count_fixed(3, 2, v), 8, InvalidArgumentError),
            (lambda v: counting.colored_fixed(3, v), 2, NonDivisorError),
            (lambda v: counting.uncolored_fixed(3, v), 4, NonDivisorError),
            (lambda v: counting.o_fixed(3, v), 2, NonDivisorError),
            (counting.double_factorial, 4, EvenInputError),
            (counting.colored_classes_prime, 4, NotPrimeError),
            (counting.o_classes_prime, 4, NotPrimeError),
            (lambda v: counting.build_table(v, 1), 2, InvalidArgumentError),
            (orbit_census, 33, InvalidArgumentError),
            (lambda v: orbit_census(3, v), 8, InvalidArgumentError),
            (lambda v: burnside_check(3, v), 8, InvalidArgumentError),
            (lambda v: _spin_graph_breaking_at(v).validate(), 3, InvalidSpinError),
            (lambda v: _spin_graph_not_mutual_at(v).validate(), 2, InvalidSpinError),
        ],
        ids=[
            "rotate", "count_fixed shift", "count_fixed class", "colored_fixed",
            "uncolored_fixed", "o_fixed", "double_factorial", "colored_classes_prime",
            "o_classes_prime", "build_table", "orbit_census order", "orbit_census class",
            "burnside_check class", "SpinGraph.validate alternation",
            "SpinGraph.validate mutual",
        ],
    )
    def test_integer_past_the_digit_limit_raises_package_error(self, call, small, error):
        with pytest.raises(error) as expected:
            call(small)
        with pytest.raises(error) as exc:
            call(10**5000)
        assert type(exc.value) is type(expected.value)
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            assert "<16610-bit integer>" in str(exc.value)


def _spin_graph_breaking_at(label) -> SpinGraph:
    """Half-edges 1, 2, label, 4 whose alternation breaks between 2 and label."""
    return SpinGraph(
        (1, 2, label, 4),
        ((1, label), (2, 4)),
        {1: 2, 2: 1, label: 4, 4: label},
        {2: 4, 4: 2, label: 1, 1: label},
    )


def _spin_graph_not_mutual_at(label) -> SpinGraph:
    """Half-edges 1, label, 3, 4 whose black partnership at label is one-way."""
    return SpinGraph(
        (1, label, 3, 4),
        ((1, 3), (label, 4)),
        {1: label, label: 3, 3: 4, 4: 1},
        {1: 4, 4: 1, label: 3, 3: label},
    )
