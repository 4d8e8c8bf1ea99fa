#!/usr/bin/env python3
"""Builds spur_bench from source and runs one workload.

    python3 spur_bench/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1] [spur_bench options...]

Run from the repository root.  The build goes to .bench_build/spur_bench
(a Release build of ../src plus the benchmark); the first run configures
and compiles it, later runs only check that it is up to date.  With
--trace 1 the Chrome trace of the traced pass is written to
.bench_build/traces/<workload>-seed<N>.json.

stdout ends with the benchmark's summary line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to stderr.  The exit status is spur_bench's, or 2 when
the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    """Configures (once) and builds spur_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise OSError(f"no simulator sources under {ROOT / 'src'}")
    tree = BUILD / "spur_bench"
    if not (tree / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(tree),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(tree), "--target", "spur_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return tree / "spur_bench"


def option(args, name, default):
    """The value of --name in args (either --name V or --name=V)."""
    for i, arg in enumerate(args):
        if arg == f"--{name}" and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(f"--{name}="):
            return arg.split("=", 1)[1]
    return default


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    scratch = BUILD / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    extra = ["--expected", str(HERE / "expected.json"),
             "--scratch", str(scratch)]
    if option(args, "trace", "0") == "1":
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        name = (f"{option(args, 'workload', 'unknown')}"
                f"-seed{option(args, 'seed', '1')}.json")
        extra += ["--trace-file", str(traces / name)]
    return subprocess.run([str(binary)] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
