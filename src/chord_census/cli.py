"""Command-line front end.

Exit codes: 0 on success, 1 when a brute-force budget is exceeded or a
verification run finds a mismatch, 2 on bad arguments (including malformed
gluing text).  Only the package's input errors map to 2; any other
exception, a plain ``ValueError`` included, is a bug and surfaces as a
traceback.  Long enumerations stream to stdout; progress, when asked
for, goes to stderr.  JSON output is key-sorted so runs diff cleanly.
Every command that prints one result goes through ``_emit``, which prints
its record as JSON or its text lines, and builds only the view it prints.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict
from typing import Optional

from . import counting
from .census import _burnside_holds, _class_gluings, _class_n, orbit_census
# Unused here, but perfbench's traced verify run patches these names on this module.
from .census import burnside_check, count_fixed  # noqa: F401
from .cycles import CycleDecomposition, surface_type, trace_cycles
from .diagram import ColorDiagram, DiagramClass, Gluing, canonical_form, classify, isomorphic
from .errors import (
    BudgetExceededError,
    InvalidArgumentError,
    InvalidGluingError,
    SizeMismatchError,
    _integer,
    _shown,
)
from .render import render_svg

__all__ = ["main", "build_parser"]

# class -> (its gluing total, its isomorphism-class count), both functions of n
_CLASS_FORMULAS = {
    DiagramClass.ALL: (counting.total_gluings, counting.colored_classes),
    DiagramClass.O: (counting.total_o_gluings, counting.o_classes),
    DiagramClass.N: (
        lambda n: counting.total_gluings(n) - counting.total_o_gluings(n),
        counting.n_classes,
    ),
}


def _class_arg(value: str) -> DiagramClass:
    try:
        return DiagramClass(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"class must be all, o or n, not {_shown(value)}")


def _key_values(record: dict) -> str:
    """The record as ``key=value`` words in its own order, booleans as in JSON."""
    return " ".join(
        f"{key}={str(value).lower() if isinstance(value, bool) else value}"
        for key, value in record.items()
    )


def _aligned(rows: list[dict]):
    """Yield ``rows`` as right-aligned columns under a header of their keys."""
    grid = [list(rows[0]), *([str(value) for value in row.values()] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*grid)]
    for cells in grid:
        yield "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def _emit(args, record: dict, lines) -> None:
    """Print ``record`` as JSON under ``--format json``, else each of ``lines``,
    which is read only then, so a lazy iterable formats no unused text.
    Counts are exact, and (2n-1)!! passes Python's 4300-digit int-to-str
    limit at n = 1424, so the limit is lifted only while printing: input is
    parsed under it, and an in-process caller gets it back."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(json.dumps(record, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chord-census",
        description="Exact counting and analysis of color chord diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class(p):
        p.add_argument(
            "--class",
            dest="diagram_class",
            type=_class_arg,
            default=DiagramClass.ALL,
            help="diagram class: all, o or n (default all)",
        )

    def add_budget_workers(p):
        p.add_argument("--budget", type=int, default=None, help="max gluings to enumerate")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="most parallel shard workers, at most one per task and per usable CPU; "
            "a census under 10^7 gluings runs in-process",
        )

    p = sub.add_parser("count", help="closed-form counts for one n")
    p.add_argument("--n", type=int, required=True)
    add_class(p)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("table", help="count table over a range of n")
    p.add_argument("--from", dest="n_from", type=int, default=2)
    p.add_argument("--to", dest="n_to", type=int, default=11)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")

    p = sub.add_parser("enumerate", help="stream all gluings of a class")
    p.add_argument("--n", type=int, required=True)
    add_class(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--progress", action="store_true", help="progress on stderr")

    p = sub.add_parser("orbits", help="brute-force isomorphism census")
    p.add_argument("--n", type=int, required=True)
    add_class(p)
    p.add_argument("--orbit-reps", action="store_true", help="list orbit representatives")
    p.add_argument(
        "--full-group",
        action="store_true",
        help="use all 2n rotations (uncolored-diagram isomorphism)",
    )
    add_budget_workers(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--progress", action="store_true", help="progress on stderr")

    for name, about, gluings in (
        ("cycles", "boundary cycles and surface type", ["gluing"]),
        ("canon", "canonical form of a diagram", ["gluing"]),
        ("iso", "are two diagrams isomorphic", ["gluing1", "gluing2"]),
        ("classify", "O or N class of a diagram", ["gluing"]),
    ):
        p = sub.add_parser(name, help=about)
        for gluing in gluings:
            p.add_argument(gluing)
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("verify", help="formulas versus brute force")
    p.add_argument("--to", dest="n_to", type=int, default=7)
    add_budget_workers(p)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("render", help="SVG picture of a diagram")
    p.add_argument("gluing")
    p.add_argument("--format", choices=["svg"], default="svg")

    return parser


def _cmd_count(args) -> int:
    total, classes = _CLASS_FORMULAS[args.diagram_class]
    record = {
        "n": args.n,
        "class": args.diagram_class.value,
        "total_gluings": total(args.n),
        "classes": classes(args.n),
    }
    _emit(args, record, map(_key_values, [record]))
    return 0


def _cmd_table(args) -> int:
    table = counting.build_table(args.n_from, args.n_to)
    record = table.to_json_dict()
    # the csv and text views are lazy, so their cells are formatted inside _emit
    csv_text = map(counting.CountTable.to_csv, [table])
    csv = itertools.chain.from_iterable(map(str.splitlines, csv_text))
    _emit(args, record, csv if args.format == "csv" else _aligned(record["rows"]))
    return 0


def _cmd_enumerate(args) -> int:
    for emitted, g in enumerate(_class_gluings(args.n, args.diagram_class), 1):
        if args.format == "json":
            print(json.dumps(g.to_json_dict(), sort_keys=True))
        else:
            print(g.text())
        if args.progress and emitted % 1_000_000 == 0:
            print(f"enumerated={emitted}", file=sys.stderr)
    return 0


def _cmd_orbits(args) -> int:
    def progress(done: int, orbits: int) -> None:
        print(f"processed={done} orbits={orbits}", file=sys.stderr)

    census = orbit_census(
        args.n,
        args.diagram_class,
        keep_orbits=args.orbit_reps,
        full_rotation_group=args.full_group,
        budget=args.budget,
        workers=args.workers,
        progress=progress if args.progress else None,
    )
    record = {
        "n": census.n,
        "class": census.diagram_class.value,
        "group_order": census.group_order,
        "total_gluings": census.total_gluings,
        "orbit_count": census.orbit_count,
    }
    if args.format == "json" and args.orbit_reps:
        record["orbits"] = [
            {
                "representative": o.representative.text(),
                "size": o.size,
                "stabilizer_order": o.stabilizer_order,
            }
            for o in census.orbits
        ]
    reps = (
        f"{o.representative.text()} size={o.size} stabilizer={o.stabilizer_order}"
        for o in census.orbits or ()
    )
    _emit(args, record, itertools.chain(map(_key_values, [record]), reps))
    return 0


def _cmd_cycles(args) -> int:
    d = ColorDiagram(Gluing.parse(args.gluing))
    dec = trace_cycles(d)
    record = {**dec.to_json_dict(), "surface": asdict(surface_type(d))}
    lambdas = {key: record[key] for key in ("lambda_b", "lambda_w", "lambda_total")}
    text = map(_key_values, [lambdas, record["surface"]])
    _emit(args, record, itertools.chain(map(CycleDecomposition.text, [dec]), text))
    return 0


def _cmd_canon(args) -> int:
    form = canonical_form(Gluing.parse(args.gluing)).text()
    _emit(args, {"canonical_form": form}, [form])
    return 0


def _cmd_iso(args) -> int:
    answer = isomorphic(Gluing.parse(args.gluing1), Gluing.parse(args.gluing2))
    _emit(args, {"isomorphic": answer}, ["true" if answer else "false"])
    return 0


def _cmd_classify(args) -> int:
    cls = classify(Gluing.parse(args.gluing)).value
    _emit(args, {"class": cls}, map(str.upper, [cls]))
    return 0


def _verify_checks(n_to: int, budget, workers):
    """Yield (label, expected, got) for every formula-versus-census check.

    A class-all and a class-O census per n supply every brute-force number.
    """
    for n in range(2, n_to + 1):
        every, o = (
            orbit_census(n, cls, keep_orbits=False, budget=budget, workers=workers)
            for cls in (DiagramClass.ALL, DiagramClass.O)
        )
        censuses = {DiagramClass.ALL: every, DiagramClass.O: o, DiagramClass.N: _class_n(every, o)}
        for cls, (total, classes) in _CLASS_FORMULAS.items():
            census = censuses[cls]
            yield (f"classes n={n} class={cls.value}", classes(n), census.orbit_count)
            yield (f"stream total n={n} class={cls.value}", total(n), census.total_gluings)
        fixed_all = dict(censuses[DiagramClass.ALL].fixed_counts)
        fixed_o = dict(censuses[DiagramClass.O].fixed_counts)
        for k in range(2, 2 * n + 1, 2):
            if (2 * n) % k == 0:
                m = k // 2
                yield (f"fixed n={n} k={k} class=all", counting.colored_fixed(n, m), fixed_all[k])
                yield (f"fixed n={n} k={k} class=o", counting.o_fixed(n, m), fixed_o[k])
        yield (f"fixed n={n} k=2 class=o equals n", n, fixed_o[2])
        for cls, census in censuses.items():
            yield (f"burnside n={n} class={cls.value}", True, _burnside_holds(census))
        if counting._is_odd_prime(n):
            yield (
                f"prime shortcut d** n={n}",
                counting.colored_classes(n),
                counting.colored_classes_prime(n),
            )
            yield (
                f"prime shortcut d_o n={n}",
                counting.o_classes(n),
                counting.o_classes_prime(n),
            )


def _cmd_verify(args) -> int:
    n_to = _integer(args.n_to, "--to", 2)
    checks = []
    for label, expected, got in _verify_checks(n_to, args.budget, args.workers):
        ok = expected == got
        checks.append({"label": label, "ok": ok, "expected": expected, "got": got})
        if args.format == "text":
            mark = "ok  " if ok else "FAIL"
            detail = "" if ok else f" (expected {expected}, got {got})"
            print(f"{mark} {label}{detail}")
    passed = sum(check["ok"] for check in checks)
    verdict = "PASS" if passed == len(checks) else "FAIL"
    summary = map("{}: {}/{} checks ok".format, [verdict], [passed], [len(checks)])
    _emit(args, {"checks": checks, "passed": verdict == "PASS"}, summary)
    return 0 if verdict == "PASS" else 1


def _cmd_render(args) -> int:
    sys.stdout.write(render_svg(Gluing.parse(args.gluing)))
    return 0


_HANDLERS = {
    "count": _cmd_count,
    "table": _cmd_table,
    "enumerate": _cmd_enumerate,
    "orbits": _cmd_orbits,
    "cycles": _cmd_cycles,
    "canon": _cmd_canon,
    "iso": _cmd_iso,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InvalidGluingError, SizeMismatchError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
