#!/usr/bin/env python3
"""List the simulator library's functions that only the tests keep.

Builds the tree and spur_bench in BUILD_DIR with every function and
datum in its own section and the linker dropping unreferenced ones
(-ffunction-sections -fdata-sections -Wl,--gc-sections), so each
binary keeps exactly the library code it can reach.  It then compares
the text symbols libspur.a exports (`nm -C --defined-only`, types T and
W, std:: and __gnu_cxx:: instantiations left out) with the symbols each
linked binary kept:

  test-only       kept by spur_tests and by no bench, example, tool or
                  spur_bench binary;
  kept by none    kept by no binary at all: dead, or inlined at every
                  caller (a candidate, not a verdict; grep the name).

Usage:
  python3 tools/test_only_symbols.py BUILD_DIR

The build is Release.  The report goes to stdout and, under GitHub
Actions, to the step summary as well.  The build directory is separate
from the presets' and their flags are left alone.
"""

import os
import subprocess
import sys

GC_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
SKIPPED_PREFIXES = ("std::", "__gnu_cxx::")


def run(cmd):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build(source, build_dir):
    jobs = str(min(os.cpu_count() or 1, 8))
    run(["cmake", "-S", source, "-B", build_dir] + GC_FLAGS)
    run(["cmake", "--build", build_dir, "-j", jobs])


def symbols(path, types):
    """Demangled names of @p path's defined symbols whose nm type is in
    @p types."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types:
            names.add(parts[2])
    return names


def executables(directory):
    for root, _, files in os.walk(directory):
        if "CMakeFiles" in root:
            continue
        for name in files:
            path = os.path.join(root, name)
            if os.access(path, os.X_OK) and not name.endswith(
                    (".so", ".py", ".sh")):
                yield path


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.abspath(argv[1])
    build(root, build_dir)
    bench_dir = os.path.join(build_dir, "spur_bench")
    build(os.path.join(root, "spur_bench"), bench_dir)

    exported = {name for name in symbols(
        os.path.join(build_dir, "src", "libspur.a"), "TW")
        if not name.startswith(SKIPPED_PREFIXES)}
    kept_outside = set()
    binaries = [os.path.join(bench_dir, "spur_bench")]
    for sub in ("bench", "examples", "tools"):
        binaries += executables(os.path.join(build_dir, sub))
    for path in binaries:
        kept_outside |= symbols(path, "TtWw")
    kept_by_tests = symbols(os.path.join(build_dir, "tests", "spur_tests"),
                            "TtWw")

    unkept = exported - kept_outside
    test_only = sorted(unkept & kept_by_tests)
    none = sorted(unkept - kept_by_tests)
    lines = [
        "## Test-only library symbols (Release)",
        "",
        f"{len(exported)} exported by libspur.a, {len(test_only)} kept "
        f"only by spur_tests, {len(none)} kept by no binary "
        f"({len(binaries)} non-test binaries).",
        "",
        "### Kept only by spur_tests",
        "",
    ]
    lines += [f"- `{name}`" for name in test_only] or ["(none)"]
    lines += ["", "### Kept by no binary", ""]
    lines += [f"- `{name}`" for name in none] or ["(none)"]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
