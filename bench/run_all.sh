#!/usr/bin/env bash
# Regenerates every paper table/figure and ablation into stdout.
#
# Usage: bench/run_all.sh [build_dir] [--json-dir=DIR] [extra flags...]
#
# The optional build_dir (default: build) must come first.  Every other
# argument is passed through to each bench binary, so e.g.
#
#   bench/run_all.sh build --jobs=8 --reps=2
#
# runs the whole suite with 8 worker threads.  google-benchmark's own
# --benchmark_* flags go to the micro_* benches only: every other bench
# rejects a flag it does not know (exit 2).  With --json-dir=DIR each
# bench additionally writes machine-readable run records to
# DIR/<bench>.json (the micro benches emit google-benchmark's JSON).
set -euo pipefail

BUILD="build"
JSON_DIR=""
ARGS=()
MICRO_ARGS=()
for arg in "$@"; do
    case "$arg" in
        --json-dir=*)
            JSON_DIR="${arg#--json-dir=}"
            ;;
        --benchmark_*)
            MICRO_ARGS+=("$arg")
            ;;
        --*)
            ARGS+=("$arg")
            ;;
        *)
            BUILD="$arg"
            ;;
    esac
done

if [[ ! -d "$BUILD/bench" ]]; then
    echo "error: no bench binaries under '$BUILD' (build first?)" >&2
    exit 1
fi

if [[ -n "$JSON_DIR" ]]; then
    mkdir -p "$JSON_DIR"
fi

# The scenario library (DESIGN.md §19) — ctx-switch, flush-storm,
# server-churn and gc-sweep — rides along on these benches as extra
# --scenarios rows/tables (record/replay them with spur_trace or the
# session --record-trace / --replay-trace flags).
SCENARIO_BENCHES="ablation_policy_variants table_3_4_dirty_overhead \
table_3_5_pageout"

for b in "$BUILD"/bench/*; do
    [[ -x "$b" && -f "$b" ]] || continue
    name="$(basename "$b")"
    echo "==================================================================="
    echo "== $name"
    echo "==================================================================="
    EXTRA=()
    if [[ -n "$JSON_DIR" ]]; then
        EXTRA+=("--json=$JSON_DIR/$name.json")
    fi
    if [[ " $SCENARIO_BENCHES " == *" $name "* ]]; then
        EXTRA+=("--scenarios")
    fi
    if [[ "$name" == micro_* ]]; then
        EXTRA+=(${MICRO_ARGS[@]+"${MICRO_ARGS[@]}"})
    fi
    "$b" ${ARGS[@]+"${ARGS[@]}"} ${EXTRA[@]+"${EXTRA[@]}"}
    echo
done
