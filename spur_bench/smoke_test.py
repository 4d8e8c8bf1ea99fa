#!/usr/bin/env python3
"""Smoke test for spur_bench, registered with ctest under the label perf.

    python3 smoke_test.py PATH/TO/spur_bench

Runs every workload of BENCHMARK.json at a reduced reference budget with
one timed pass, untraced and traced.  At that budget no digest is pinned,
so each cell is checked against the same cell computed another way (live
against replay, replay against live, a recording against a second one).
Asserts that every run passes its checks, that the summary line has
exactly the keys correct, attempted, failed and metrics, and that it
names every metric of BENCHMARK.json with its unit, in order.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(binary, workload, trace, scratch):
    """Returns a list of problems with one run."""
    group = "per_layer" if trace == "1" else "end_to_end"
    proc = subprocess.run(
        [binary, "--workload", workload, "--refs", "0.3", "--reps", "1",
         "--trace", trace, "--scratch", scratch],
        capture_output=True, text=True, timeout=60)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    doc, summary = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(summary) != SUMMARY_KEYS:
        problems.append(f"{where}: summary keys {sorted(summary)}")
    if not summary["correct"] or summary["failed"] != 0:
        problems.append(f"{where}: checks failed\n{proc.stderr}")
    if summary["attempted"] < 1 or doc["cells_failed"] != 0:
        problems.append(f"{where}: attempted {summary['attempted']}, "
                        f"cells_failed {doc['cells_failed']}")
    want = [(m["name"], m["unit"]) for m in SPEC[group]]
    got = [(name, m["unit"]) for name, m in summary["metrics"].items()]
    if got != want:
        problems.append(f"{where}: metrics {got} != BENCHMARK.json {want}")
    return problems


def main():
    binary = sys.argv[1]
    problems = []
    with tempfile.TemporaryDirectory(dir=".") as scratch:
        for workload in SPEC["workloads"]:
            for trace in ("0", "1"):
                problems += check(binary, workload["name"], trace, scratch)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"spur_bench smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
