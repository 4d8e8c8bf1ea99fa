#!/usr/bin/env bash
# Runs every spur_bench workload, one process each, and prints one
# spur-bench/1 JSON line per workload: every end-to-end metric with its
# unit, median and quartiles, plus the cells' digests.  Arguments are
# passed to every run, e.g.
#
#   bash spur_bench/run.sh --seed 2 --seconds 10 >> change.jsonl
#
# Exits 1 if any workload failed a check or did not run.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
status=0
for workload in live replay-hot replay-paging record; do
    if ! out="$(python3 "$here/run.py" --workload "$workload" "$@")"; then
        status=1
    fi
    if [ -n "$out" ]; then
        printf '%s\n' "$out" | sed -n 1p
    fi
done
exit "$status"
