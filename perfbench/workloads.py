"""Job lists, output checks and span tracing for the chord-census benchmark.

Three workloads, each a fixed job list run as a closed loop from one
process (the next job starts when the previous one has returned and been
checked):

* ``census``  - the vectorized orbit census (``orbit_census``), class all
  and class O, at one and two worker processes;
* ``stream``  - the per-item Python path: the backtracking enumerators,
  every gluing of one small order through ``classify``,
  ``canonical_form`` and ``cycle_counts``, and a seeded random sample of
  large diagrams through every per-diagram tool;
* ``verify``  - ``chord-census verify`` in-process (many small
  single-worker census passes) plus the closed-form table.

Every job checks its output exactly, against the closed forms or against
an identity the benchmark derives itself; a job that raises counts as a
failed check and the loop goes on.

Run by ``run.py`` as a fresh child process per workload::

    python3 perfbench/workloads.py --workload census --seed 1 --seconds 30 --mode plain

It prints one JSON object on its last stdout line.  ``--mode plain``
times untraced iterations, ``--mode alternate`` alternates untraced and
traced iterations (tracing overhead and per-layer numbers), and
``--mode once`` runs a single traced iteration.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import chord_census as cc  # noqa: E402
from chord_census import DiagramClass, cli  # noqa: E402

WORKLOADS = ("census", "stream", "verify")

# Passed to every census call, so that a CHORD_CENSUS_BUDGET in the
# environment can neither change nor abort a run.  Above every job's need.
BUDGET = 100_000_000

CLASS_FORMULA = {
    DiagramClass.ALL: cc.colored_classes,
    DiagramClass.O: cc.o_classes,
    DiagramClass.N: cc.n_classes,
}


@dataclass(frozen=True)
class Sizes:
    census: dict  # role -> (n, class, workers)
    enum_n: int
    enum_o_n: int
    exhaustive_n: int
    sample: int
    sample_n: tuple
    verify_to: int
    table_to: int


FULL = Sizes(
    census={
        "all_w1": (8, DiagramClass.ALL, 1),
        "all_w2": (8, DiagramClass.ALL, 2),
        "o_w1": (9, DiagramClass.O, 1),
        "o_w2": (9, DiagramClass.O, 2),
    },
    enum_n=7,
    enum_o_n=9,
    exhaustive_n=6,
    sample=500,
    sample_n=(20, 60),
    verify_to=7,
    table_to=200,
)

TINY = Sizes(
    census={
        "all_w1": (4, DiagramClass.ALL, 1),
        "all_w2": (4, DiagramClass.ALL, 2),
        "o_w1": (4, DiagramClass.O, 1),
        "o_w2": (4, DiagramClass.O, 2),
    },
    enum_n=4,
    enum_o_n=4,
    exhaustive_n=3,
    sample=20,
    sample_n=(3, 8),
    verify_to=3,
    table_to=12,
)

SIZES = {"full": FULL, "tiny": TINY}


# ---------------------------------------------------------------------------
# independent reference values
# ---------------------------------------------------------------------------


def class_size(n: int, cls: DiagramClass) -> int:
    """Gluings in a class: (2n-1)!!, n!, or their difference."""
    total = math.prod(range(1, 2 * n, 2))
    o_total = math.factorial(n)
    return {DiagramClass.ALL: total, DiagramClass.O: o_total, DiagramClass.N: total - o_total}[cls]


def budget_charge(n: int, cls: DiagramClass) -> int:
    """What a census pass is charged: class O n!, classes all and N (2n-1)!!."""
    return class_size(n, DiagramClass.O if cls is DiagramClass.O else DiagramClass.ALL)


def _divisor_count(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def _is_odd_prime(m: int) -> bool:
    return m > 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def verify_check_count(n_to: int) -> int:
    """Checks ``verify --to n_to`` prints: per n, classes and stream totals
    for three classes (6), two fixed counts per divisor of n, the k=2 class-O
    check, three Burnside checks, and two prime shortcuts for odd primes."""
    return sum(
        10 + 2 * _divisor_count(m) + (2 if _is_odd_prime(m) else 0)
        for m in range(2, n_to + 1)
    )


# ---------------------------------------------------------------------------
# checks and tracing
# ---------------------------------------------------------------------------


class Checks:
    """Counts output checks; every mismatch is a failure, none is skipped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, label: str, expected, got) -> None:
        self.attempted += 1
        if expected != got:
            self.failures.append(f"{label}: expected {expected!r}, got {got!r}")

    @contextlib.contextmanager
    def job(self, label: str):
        try:
            yield
        except Exception as exc:  # a crashing job is one failed check; the loop goes on
            self.attempted += 1
            self.failures.append(f"{label}: raised {exc!r}")


class NullTracer:
    """Untraced runs: no spans, wrapped functions are the functions."""

    def span(self, name: str, job: str, size: int = 0):
        return contextlib.nullcontext()

    def wrap(self, name: str, job: str, fn, size=None):
        return fn

    def patch(self, module, names, job: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory spans: name, job id, start, end, parent span, size."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str, size: int = 0):
        index = len(self.spans)
        record = {
            "name": name,
            "job": job,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "size": size,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, job: str, fn, size=None):
        """``fn`` recording one span per call; ``size(result)`` sets its size."""

        def traced(*args, **kwargs):
            with self.span(name, job) as record:
                out = fn(*args, **kwargs)
                if size is not None:
                    record["size"] = size(out)
                return out

        return traced

    @contextlib.contextmanager
    def patch(self, module, names, job: str):
        """Swap census entry points on ``module`` for span-recording wrappers
        that also record the gluings each call is charged; restore on exit."""
        originals = {name: getattr(module, name) for name in names}

        def wrapper(name, fn):
            signature = inspect.signature(fn)

            def traced(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                cls = bound.get("diagram_class", DiagramClass.ALL)
                with self.span(f"census.{name}", job, budget_charge(bound["n"], cls)):
                    return fn(*args, **kwargs)

            return traced

        for name, fn in originals.items():
            setattr(module, name, wrapper(name, fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    exhaustive: list  # every gluing of order sizes.exhaustive_n
    sample: list  # (pairs, even shift) per random diagram
    digest: str  # sha256 of the sample, to show two runs used the same inputs


def working_sets(sizes: Sizes) -> dict:
    """Census shard sizes from array shapes (computed, not measured): one
    int8 partner row of 2n bytes per gluing, plus packed uint64 sort keys."""
    out = {}
    for role, (n, cls, workers) in sizes.census.items():
        pts = 2 * n
        o_class = cls is DiagramClass.O
        rows = math.factorial(n - 1) if o_class else math.prod(range(1, pts - 2, 2))
        key_words = math.ceil(pts / (63 // pts.bit_length()))
        out[role] = {
            "n": n,
            "class": cls.value,
            "workers": workers,
            "shards": n if o_class else pts - 1,
            "rows_per_shard": rows,
            "shard_bytes": rows * pts,
            "key_bytes": rows * 8 * key_words,
            "label": "computed",
        }
    return out


def make_inputs(workload: str, seed: int, sizes: Sizes) -> Inputs:
    if workload != "stream":
        return Inputs([], [], "")
    rng = random.Random(seed)
    sample = []
    lo, hi = sizes.sample_n
    for i in range(sizes.sample):
        # orders cycle through lo..hi so that every seed does the same work
        n = lo + i % (hi - lo + 1)
        points = list(range(1, 2 * n + 1))
        rng.shuffle(points)
        pairs = [(points[2 * i], points[2 * i + 1]) for i in range(n)]
        sample.append((pairs, 2 * rng.randint(1, n - 1)))
    digest = hashlib.sha256(json.dumps(sample).encode()).hexdigest()
    return Inputs(list(cc.enumerate_gluings(sizes.exhaustive_n)), sample, digest)


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def run_census(sizes: Sizes, inputs: Inputs, tr, checks: Checks) -> None:
    for role, (n, cls, workers) in sizes.census.items():
        job = f"census/{role}"
        with checks.job(job):
            with tr.span("census.orbit_census", job):
                res = cc.orbit_census(n, cls, keep_orbits=False, budget=BUDGET, workers=workers)
            checks.expect(f"{job} orbit_count", CLASS_FORMULA[cls](n), res.orbit_count)
            checks.expect(f"{job} total_gluings", class_size(n, cls), res.total_gluings)


def run_stream(sizes: Sizes, inputs: Inputs, tr, checks: Checks) -> None:
    for name, fn, n, cls in (
        ("census.enumerate_gluings", cc.enumerate_gluings, sizes.enum_n, DiagramClass.ALL),
        ("census.enumerate_o_gluings", cc.enumerate_o_gluings, sizes.enum_o_n, DiagramClass.O),
    ):
        with checks.job(name):
            with tr.span(name, "stream/enumerate", class_size(n, cls)):
                count = sum(1 for _ in fn(n))
            checks.expect(f"{name}({n}) items", class_size(n, cls), count)

    n, gluings, job = sizes.exhaustive_n, inputs.exhaustive, "stream/exhaustive"
    checks.expect(f"gluings of order {n}", class_size(n, DiagramClass.ALL), len(gluings))
    with checks.job(job):
        with tr.span("diagram.classify", job):
            o_count = sum(1 for g in gluings if cc.classify(g) is DiagramClass.O)
        checks.expect(f"O-diagrams n={n}", class_size(n, DiagramClass.O), o_count)
        with tr.span("diagram.canonical_form", job):
            forms = {cc.canonical_form(g) for g in gluings}
        checks.expect(f"distinct canonical forms n={n}", cc.colored_classes(n), len(forms))
        with tr.span("cycles.cycle_counts", job):
            counts = [cc.cycle_counts(g) for g in gluings]
        # chi = 1 - n = 2 - 2g - b (orientable, class O) or 2 - k - b with k >= 1
        bad = 0
        for g, (b_cycles, w_cycles) in zip(gluings, counts):
            slack = n + 1 - b_cycles - w_cycles
            orientable = cc.classify(g) is DiagramClass.O
            if min(b_cycles, w_cycles) < 1 or (slack < 0 or slack % 2 if orientable else slack < 1):
                bad += 1
        checks.expect(f"cycle counts fit a surface n={n}", 0, bad)

    job = "stream/sample"
    normalize = tr.wrap("diagram.normalize", job, cc.normalize)
    canonical_form = tr.wrap("diagram.canonical_form", job, cc.canonical_form)
    isomorphic = tr.wrap("diagram.isomorphic", job, cc.isomorphic)
    trace_cycles = tr.wrap("cycles.trace_cycles", job, cc.trace_cycles)
    surface_type = tr.wrap("cycles.surface_type", job, cc.surface_type)
    round_trip = tr.wrap(
        "spin.round_trip", job, lambda g: cc.spin_graph_to_diagram(cc.diagram_to_spin_graph(g))
    )
    spin_iso = tr.wrap("spin.spin_graph_isomorphic", job, cc.spin_graph_isomorphic)
    render_svg = tr.wrap("render.render_svg", job, cc.render_svg, lambda svg: len(svg.encode()))
    for i, (pairs, shift) in enumerate(inputs.sample):
        label = f"sample[{i}]"
        with checks.job(label):
            g = normalize(pairs)
            n = g.n
            checks.expect(f"{label} normal form", tuple(sorted(tuple(sorted(p)) for p in pairs)), g.chords)
            canon = canonical_form(g)
            checks.expect(f"{label} canonical form is least", True, canon.flattened() <= g.flattened())
            rotated = cc.rotate(g, shift)
            checks.expect(f"{label} isomorphic to rotation by {shift}", True, isomorphic(g, rotated))
            dec = trace_cycles(g)
            arcs = sum(1 for c in dec.b_cycles + dec.w_cycles for s in c.steps if isinstance(s, cc.ArcStep))
            checks.expect(f"{label} every arc traced once", 2 * n, arcs)
            surface = surface_type(g)
            checks.expect(f"{label} chi", 1 - n, surface.euler_characteristic)
            checks.expect(f"{label} boundary", dec.total, surface.boundary_components)
            checks.expect(f"{label} spin round trip", g, round_trip(g).gluing)
            checks.expect(
                f"{label} spin graphs of rotations isomorphic",
                True,
                spin_iso(cc.diagram_to_spin_graph(g), cc.diagram_to_spin_graph(rotated)),
            )
            svg = render_svg(g)
            checks.expect(f"{label} svg chords", n, svg.count("<line "))


def run_verify(sizes: Sizes, inputs: Inputs, tr, checks: Checks) -> None:
    n_to = sizes.verify_to
    with checks.job("verify"):
        out = io.StringIO()
        with tr.patch(cli, ("orbit_census", "count_fixed", "burnside_check"), "verify/cli"):
            with contextlib.redirect_stdout(out), tr.span("cli.verify", "verify/cli"):
                code = cli.main(
                    ["verify", "--to", str(n_to), "--budget", str(BUDGET), "--workers", "1"]
                )
        lines = out.getvalue().splitlines()
        k = verify_check_count(n_to)
        checks.expect("verify exit code", 0, code)
        checks.expect("verify summary", f"PASS: {k}/{k} checks ok", lines[-1] if lines else "")
        checks.expect("verify ok lines", k, sum(1 for line in lines if line.startswith("ok  ")))

    n_to = sizes.table_to
    with checks.job("table"):
        with tr.span("counting.build_table", "verify/table"):
            table = cc.build_table(2, n_to)
            csv_text = table.to_csv()
            json_text = table.to_json()
        checks.expect("table rows", n_to - 1, len(table.rows))
        for row in table.rows:
            checks.expect(f"table n={row.n} total", class_size(row.n, DiagramClass.ALL), row.total)
            checks.expect(f"table n={row.n} o_total", class_size(row.n, DiagramClass.O), row.o_total)
            checks.expect(f"table n={row.n} d_n", row.d_double_star - row.d_o, row.d_n)
        by_n = {row.n: row for row in table.rows}
        # reference values from the package documentation
        checks.expect("table d_double_star n=9", 3828921, by_n[9].d_double_star)
        checks.expect("table d_o n=11", 3628810, by_n[11].d_o)
        checks.expect("csv lines", n_to, len(csv_text.splitlines()))
        checks.expect("json rows", n_to - 1, len(json.loads(json_text)["rows"]))


JOBS = {"census": run_census, "stream": run_stream, "verify": run_verify}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced iteration
# ---------------------------------------------------------------------------


def _total(spans, name: str, job: str | None = None) -> float:
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and (job is None or s["job"] == job)
    )


def _latencies_us(spans, name: str, job: str) -> list[float]:
    return sorted((s["end"] - s["start"]) * 1e6 for s in spans if s["name"] == name and s["job"] == job)


def tail_index(count: int) -> int:
    """Index (sorted ascending) of the highest sample with at least ten
    samples beyond it; the largest sample when there are fewer than eleven."""
    return count - 11 if count >= 11 else count - 1


def layer_metrics(workload: str, spans: list[dict]) -> dict[str, float]:
    m: dict[str, float] = {}
    if workload == "census":
        for role in FULL.census:
            m[f"census.orbit_census.{role}.s"] = _total(spans, "census.orbit_census", f"census/{role}")
        m["census.w2_speedup"] = m["census.orbit_census.all_w1.s"] / m["census.orbit_census.all_w2.s"]
    elif workload == "stream":
        for name in ("census.enumerate_gluings", "census.enumerate_o_gluings"):
            (span,) = [s for s in spans if s["name"] == name]
            m[f"{name}.items_per_s"] = span["size"] / (span["end"] - span["start"])
        for name in ("diagram.classify", "diagram.canonical_form", "cycles.cycle_counts"):
            m[f"{name}.s"] = _total(spans, name, "stream/exhaustive")
        for name in ("diagram.canonical_form", "cycles.trace_cycles"):
            lat = _latencies_us(spans, name, "stream/sample")
            m[f"{name}.calls"] = len(lat)
            m[f"{name}.p50_us"] = statistics.median(lat)
            m[f"{name}.ptail_us"] = lat[tail_index(len(lat))]
        for name in (
            "diagram.isomorphic",
            "diagram.normalize",
            "cycles.surface_type",
            "spin.round_trip",
            "spin.spin_graph_isomorphic",
            "render.render_svg",
        ):
            m[f"{name}.s"] = _total(spans, name)
        m["render.svg_bytes"] = sum(s["size"] for s in spans if s["name"] == "render.render_svg")
    else:
        census = [s for s in spans if s["job"] == "verify/cli" and s["name"].startswith("census.")]
        m["census.calls"] = len(census)
        m["census.gluings_charged"] = sum(s["size"] for s in census)
        for name in ("orbit_census", "count_fixed", "burnside_check"):
            m[f"census.{name}.s"] = _total(census, f"census.{name}")
        (verify,) = [s for s in spans if s["name"] == "cli.verify"]
        index = spans.index(verify)
        m["cli.verify.s"] = verify["end"] - verify["start"]
        children = sum(s["end"] - s["start"] for s in census if s["parent"] == index)
        m["cli.verify.self_s"] = m["cli.verify.s"] - children
        m["counting.build_table.s"] = _total(spans, "counting.build_table")
    return m


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def _median(values: list):
    """Median; an exact count stays an integer."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def iterate(workload: str, sizes: Sizes, inputs: Inputs, traced: bool, checks: Checks):
    """One pass over the job list; returns (wall seconds, spans)."""
    tr = Tracer() if traced else NullTracer()
    start = time.perf_counter()
    JOBS[workload](sizes, inputs, tr, checks)
    wall = time.perf_counter() - start
    return wall, (tr.spans if traced else [])


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload: str, seed: int, seconds: float, mode: str, sizes: Sizes) -> dict:
    inputs = make_inputs(workload, seed, sizes)
    checks = Checks()
    plain: list[float] = []
    traced: list[float] = []
    passes: list[dict] = []
    spans: list[dict] = []
    start = time.perf_counter()
    while True:
        if mode in ("plain", "alternate"):
            plain.append(iterate(workload, sizes, inputs, False, checks)[0])
        if mode in ("alternate", "once"):
            wall, spans = iterate(workload, sizes, inputs, True, checks)
            traced.append(wall)
            passes.append(layer_metrics(workload, spans))
        if mode == "once":
            break
        # start another iteration only if a typical one still fits
        step = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - start + step > seconds:
            break
    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:20],
        "wall_s": plain,
        "traced_wall_s": traced,
        "peak_rss_mb": peak_rss_mb(),
        "sample_digest": inputs.digest,
        "census_working_sets": working_sets(sizes),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
        "layers": {k: _median([p[k] for p in passes]) for k in passes[0]} if passes else {},
        "spans": spans,
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "alternate", "once"), required=True)
    parser.add_argument("--sizes", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.mode, SIZES[args.sizes])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
