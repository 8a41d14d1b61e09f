"""Command-line front end.

Exit codes: 0 on success, 1 when a brute-force budget is exceeded or a
verification run finds a mismatch, 2 on bad arguments (including malformed
gluing text).  Only the package's input errors map to 2; any other
exception, a plain ``ValueError`` included, is a bug and surfaces as a
traceback.  Long enumerations stream to stdout; progress, when asked
for, goes to stderr.  JSON output is key-sorted so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import counting
from .census import _burnside_holds, enumerate_gluings, enumerate_o_gluings, orbit_census
# Unused here, but perfbench's traced verify run patches these names on this module.
from .census import burnside_check, count_fixed  # noqa: F401
from .cycles import surface_type, trace_cycles
from .diagram import ColorDiagram, DiagramClass, Gluing, canonical_form, classify, isomorphic
from .errors import (
    BudgetExceededError,
    InvalidArgumentError,
    InvalidGluingError,
    SizeMismatchError,
)
from .render import render_svg

__all__ = ["main", "build_parser"]

_CLASS_TOTALS = {
    DiagramClass.ALL: counting.total_gluings,
    DiagramClass.O: counting.total_o_gluings,
    DiagramClass.N: lambda n: counting.total_gluings(n) - counting.total_o_gluings(n),
}

_CLASS_COUNTS = {
    DiagramClass.ALL: counting.colored_classes,
    DiagramClass.O: counting.o_classes,
    DiagramClass.N: counting.n_classes,
}


def _class_arg(value: str) -> DiagramClass:
    try:
        return DiagramClass(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"class must be all, o or n, not {value!r}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


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
        p.add_argument("--workers", type=int, default=1, help="parallel shard workers")

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

    p = sub.add_parser("cycles", help="boundary cycles and surface type")
    p.add_argument("gluing")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("canon", help="canonical form of a diagram")
    p.add_argument("gluing")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("iso", help="are two diagrams isomorphic")
    p.add_argument("gluing1")
    p.add_argument("gluing2")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("classify", help="O or N class of a diagram")
    p.add_argument("gluing")
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
    n = args.n
    cls = args.diagram_class
    record = {
        "n": n,
        "class": cls.value,
        "total_gluings": _CLASS_TOTALS[cls](n),
        "classes": _CLASS_COUNTS[cls](n),
    }
    if args.format == "json":
        print(_dump_json(record))
    else:
        print(
            f"n={n} class={cls.value} total_gluings={record['total_gluings']} "
            f"classes={record['classes']}"
        )
    return 0


def _cmd_table(args) -> int:
    table = counting.build_table(args.n_from, args.n_to)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        print(_dump_json(table.to_json_dict()))
    else:
        header = ["n", "total", "o_total", "d_star", "d_double_star", "d_o", "d_n"]
        rows = [
            [str(getattr(r, h)) for h in header] for r in table.rows
        ]
        widths = [
            max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)
        ]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_enumerate(args) -> int:
    stream = (
        enumerate_o_gluings(args.n)
        if args.diagram_class is DiagramClass.O
        else enumerate_gluings(args.n)
    )
    emitted = 0
    for g in stream:
        if args.diagram_class is DiagramClass.N and classify(g) is DiagramClass.O:
            continue
        if args.format == "json":
            print(json.dumps(g.to_json_dict(), sort_keys=True))
        else:
            print(g.text())
        emitted += 1
        if args.progress and emitted % 1_000_000 == 0:
            print(f"enumerated={emitted}", file=sys.stderr)
    return 0


def _cmd_orbits(args) -> int:
    progress = None
    if args.progress:

        def progress(done: int, orbits: int) -> None:
            print(f"processed={done} orbits={orbits}", file=sys.stderr)

    census = orbit_census(
        args.n,
        args.diagram_class,
        keep_orbits=True if args.orbit_reps else None,
        full_rotation_group=args.full_group,
        budget=args.budget,
        workers=args.workers,
        progress=progress,
    )
    if args.format == "json":
        record = {
            "n": census.n,
            "class": census.diagram_class.value,
            "group_order": census.group_order,
            "total_gluings": census.total_gluings,
            "orbit_count": census.orbit_count,
        }
        if args.orbit_reps and census.orbits is not None:
            record["orbits"] = [
                {
                    "representative": o.representative.text(),
                    "size": o.size,
                    "stabilizer_order": o.stabilizer_order,
                }
                for o in census.orbits
            ]
        print(_dump_json(record))
    else:
        print(
            f"n={census.n} class={census.diagram_class.value} "
            f"group_order={census.group_order} total_gluings={census.total_gluings} "
            f"orbit_count={census.orbit_count}"
        )
        if args.orbit_reps and census.orbits is not None:
            for o in census.orbits:
                print(
                    f"{o.representative.text()} size={o.size} "
                    f"stabilizer={o.stabilizer_order}"
                )
    return 0


def _cmd_cycles(args) -> int:
    d = ColorDiagram(Gluing.parse(args.gluing))
    dec = trace_cycles(d)
    surf = surface_type(d)
    if args.format == "json":
        record = dec.to_json_dict()
        record["surface"] = {
            "orientable": surf.orientable,
            "boundary_components": surf.boundary_components,
            "euler_characteristic": surf.euler_characteristic,
            "genus": surf.genus,
        }
        print(_dump_json(record))
    else:
        print(dec.text())
        lb, lw = dec.counts
        print(f"lambda_b={lb} lambda_w={lw} lambda_total={dec.total}")
        print(
            f"orientable={'true' if surf.orientable else 'false'} "
            f"boundary_components={surf.boundary_components} "
            f"euler_characteristic={surf.euler_characteristic} genus={surf.genus}"
        )
    return 0


def _cmd_canon(args) -> int:
    form = canonical_form(Gluing.parse(args.gluing))
    if args.format == "json":
        print(_dump_json({"canonical_form": form.text()}))
    else:
        print(form.text())
    return 0


def _cmd_iso(args) -> int:
    answer = isomorphic(Gluing.parse(args.gluing1), Gluing.parse(args.gluing2))
    if args.format == "json":
        print(_dump_json({"isomorphic": answer}))
    else:
        print("true" if answer else "false")
    return 0


def _cmd_classify(args) -> int:
    cls = classify(Gluing.parse(args.gluing))
    if args.format == "json":
        print(_dump_json({"class": cls.value}))
    else:
        print(cls.value.upper())
    return 0


def _verify_checks(n_to: int, budget, workers):
    """Yield (label, expected, got) for every formula-versus-census check.

    One census per (n, class) supplies every brute-force number.
    """
    for n in range(2, n_to + 1):
        censuses = {}
        for cls, formula in (
            (DiagramClass.ALL, counting.colored_classes),
            (DiagramClass.O, counting.o_classes),
            (DiagramClass.N, counting.n_classes),
        ):
            census = censuses[cls] = orbit_census(
                n, cls, keep_orbits=False, budget=budget, workers=workers
            )
            yield (f"classes n={n} class={cls.value}", formula(n), census.orbit_count)
            yield (
                f"stream total n={n} class={cls.value}",
                _CLASS_TOTALS[cls](n),
                census.total_gluings,
            )
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
        if n % 2 == 1 and counting.euler_phi(n) == n - 1:  # n is an odd prime
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
    checks = []
    failed = 0
    for label, expected, got in _verify_checks(args.n_to, args.budget, args.workers):
        ok = expected == got
        checks.append({"label": label, "ok": ok, "expected": expected, "got": got})
        if not ok:
            failed += 1
        if args.format == "text":
            mark = "ok  " if ok else "FAIL"
            detail = "" if ok else f" (expected {expected}, got {got})"
            print(f"{mark} {label}{detail}")
    if args.format == "json":
        print(_dump_json({"checks": checks, "passed": failed == 0}))
    else:
        print(f"{'PASS' if failed == 0 else 'FAIL'}: {len(checks) - failed}/{len(checks)} checks ok")
    return 0 if failed == 0 else 1


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
