#!/usr/bin/env python3
"""Smoke test for the sampling profiler.

    python3 tools/prof/smoke_test.py LIBSPUR_PROF BENCH_BINARY

Runs BENCH_BINARY (a table bench, at one million references) with the
sampler preloaded, checks that the profile is well formed and holds
samples, and that report.py prints a layer table whose shares sum to
100%.  Exits 0 on success.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPORT = Path(__file__).resolve().parent / "report.py"


def fail(message):
    print(f"prof smoke: {message}", file=sys.stderr)
    return 1


def main():
    if len(sys.argv) != 3:
        return fail("usage: smoke_test.py LIBSPUR_PROF BENCH_BINARY")
    library, bench = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        profile = os.path.join(tmp, "prof.txt")
        env = dict(os.environ, LD_PRELOAD=library, SPUR_PROF_OUT=profile)
        run = subprocess.run([bench, "--refs=1", "--reps=1", "--jobs=1"],
                             env=env, stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            return fail(f"{bench} exited {run.returncode} under the sampler")
        lines = Path(profile).read_text().splitlines()
        if lines[:1] != ["spur-prof/1"] or not any(
                line.startswith("process ") for line in lines):
            return fail(f"malformed profile: {lines[:6]}")
        report = subprocess.run([sys.executable, str(REPORT), profile,
                                 "--top", "0"],
                                capture_output=True, text=True)
        print(report.stdout)
        if report.returncode != 0:
            return fail(f"report.py exited {report.returncode}: "
                        f"{report.stderr}")
        rows = {}
        for line in report.stdout.splitlines():
            parts = line.rsplit(None, 2)
            if len(parts) == 3 and parts[2].endswith("%"):
                rows[parts[0]] = (int(parts[1]), float(parts[2][:-1]))
        if "total" not in rows or rows["total"][0] <= 0:
            return fail("report has no samples")
        shares = sum(share for name, (_, share) in rows.items()
                     if name != "total")
        if abs(shares - 100.0) > 1.0:
            return fail(f"layer shares sum to {shares:.1f}%")
        # The bench simulates: some samples must land in the simulator.
        if rows.get("hit loop", (0, 0))[0] + rows.get("miss", (0, 0))[0] \
                + rows.get("generation", (0, 0))[0] == 0:
            return fail("no samples in generation, the hit loop or the "
                        "miss path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
