"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the
metrics ``BENCHMARK.json`` declares, with their units and with every
output check passing; that a deliberately wrong expected count shows up
as a failed check; and that the benchmark fails without a result line
when the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

FAILURES: list[str] = []


def check(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def emits_declared_metrics() -> None:
    declared = run.declared_metrics()
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run(workload, seed=7, seconds=0.5, trace=trace, sizes="tiny")["result"]
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={trace}"
            check(f"{label}: metric names and units match BENCHMARK.json", units == declared[kind])
            check(f"{label}: values are numbers", all(
                isinstance(m["value"], (int, float)) for m in result["metrics"].values()
            ))
            check(f"{label}: all {result['attempted']} checks pass", result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1)


def wrong_expectation_is_counted() -> None:
    original = workloads.class_size
    workloads.class_size = lambda n, cls: original(n, cls) + 1
    try:
        result = workloads.measure("census", 7, 0.0, "plain", workloads.TINY)
    finally:
        workloads.class_size = original
    check(
        f"a wrong expected count fails checks ({result['failed']} of {result['attempted']})",
        result["failed"] > 0,
    )


def fails_without_source() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    check(f"without the package source: exit {proc.returncode}, no result line",
          proc.returncode != 0 and not printed_result)


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    emits_declared_metrics()
    wrong_expectation_is_counted()
    fails_without_source()
    print(f"{'FAIL' if FAILURES else 'PASS'}: {len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
