"""The chord-census benchmark: one run of one workload.

    python3 perfbench/run.py --workload {census,stream,verify} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``, so
nothing is installed.  Each workload runs in a fresh child process
(``workloads.py``), so imports and peak memory never leak between
workloads.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:
``wall_s`` (median seconds to a checked solution of the workload's job
list, over the iterations that fit in ``--seconds``), ``peak_rss_mb`` (the
largest resident set of the child and of its census worker processes) and
``setup_s`` (median, over fresh interpreters, of importing numpy and
``chord_census``).

``--trace 1`` prints the per-layer metrics.  Every per-layer metric belongs
to one workload's job list, so a traced run first traces each other
workload's list once, each in its own child, then alternates untraced and
traced iterations of the named workload in the time left; the difference
of their medians is ``trace.overhead_s``.

Output checks are counted across the run: ``attempted`` and ``failed`` on
the last line, the error rate (failed / attempted) in the summary above it.
A record of the run (machine, inputs, computed working sets, every
iteration and, when traced, the spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("census", "stream", "verify")

SETUP_RUNS = 12  # before the workload, and as many again after it
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import numpy, chord_census; "
    "print(time.perf_counter() - t)"
)
RUN_LIMIT_S = 170  # a run must end within 180 s, child processes included


class BenchError(Exception):
    """The run could not produce a result; no result line is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    """Run a Python child to completion, or kill it and its census worker
    processes (one session) by the deadline; return its last stdout line."""
    with subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException as exc:  # timeout or interrupt: leave no process behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{argv[0]} still running at the {RUN_LIMIT_S} s limit") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{stderr[-2000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed nothing:\n{stderr[-2000:]}")
    return lines[-1]


def measure_setup(deadline: float) -> list[float]:
    """Import times in fresh interpreters; one untimed run first fills the
    bytecode cache, which a user pays once, not per process."""
    _run_child(["-c", SETUP_SNIPPET], deadline)
    return [float(_run_child(["-c", SETUP_SNIPPET], deadline)) for _ in range(SETUP_RUNS)]


def run_workload(
    workload: str, seed: int, seconds: float, mode: str, sizes: str, deadline: float
) -> dict:
    line = _run_child(
        [
            str(HERE / "workloads.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--mode", mode,
            "--sizes", sizes,
        ],
        deadline,
    )
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise BenchError(f"workloads.py printed no result: {line[:200]!r}") from None


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def machine() -> dict:
    """What the interpreter can tell without reading files outside the
    checkout; CPU model and cache sizes are recorded with the baseline."""
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(pages / 2**30, 2),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: int, sizes: str = "full") -> dict:
    """One benchmark run; returns the record whose ``result`` is printed."""
    deadline = time.monotonic() + RUN_LIMIT_S
    declared = declared_metrics()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "commit": git_commit(),
        "machine": machine(),
    }
    if trace == 0:
        # import times drift with the machine's load; sampling on both sides
        # of the workload steadies their median
        setup = measure_setup(deadline)
        child = run_workload(workload, seed, seconds, "plain", sizes, deadline)
        setup += measure_setup(deadline)
        children = [child]
        metrics = {
            "wall_s": statistics.median(child["wall_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        record["setup_s"] = setup
        units = declared["end_to_end"]
    else:
        start = time.perf_counter()
        children = [
            run_workload(other, seed, seconds, "once", sizes, deadline)
            for other in WORKLOADS
            if other != workload
        ]
        left = max(seconds - (time.perf_counter() - start), 0.0)
        own = run_workload(workload, seed, left, "alternate", sizes, deadline)
        children.append(own)
        metrics = {}
        for child in children:
            metrics.update(child["layers"])
        metrics["trace.overhead_s"] = statistics.median(own["traced_wall_s"]) - statistics.median(
            own["wall_s"]
        )
        units = declared["per_layer"]
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    record["census_working_sets"] = children[0]["census_working_sets"]
    record["children"] = children
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return record


def summary(record: dict) -> list[str]:
    result = record["result"]
    lines = [
        f"chord-census benchmark: workload={record['workload']} seed={record['seed']} "
        f"trace={record['trace']} commit={record['commit']}"
    ]
    for child in record["children"]:
        iterations = len(child["wall_s"]) + len(child["traced_wall_s"])
        lines.append(
            f"  {child['workload']} ({child['mode']}): {iterations} iterations, "
            f"sample digest {child['sample_digest'] or '-'}"
        )
        lines.extend(f"    FAILED {f}" for f in child["failures"])
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    lines.append(
        f"  error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} checks failed)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chord-census benchmark, one run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chord_census" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print("\n".join(summary(record)))
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
