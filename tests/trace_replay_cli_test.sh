#!/usr/bin/env bash
# `spur_trace replay` prints, for each recorded stream, what the table
# bench that recorded it prints for the same cell.
#
# Usage: tests/trace_replay_cli_test.sh BUILD_DIR
#
# Records table_4_1_refbits at one million references with --json, then
# replays the recording under SPUR/MISS at 5 MB and SPUR/REF at 8 MB.
# Every stream's refs, page-ins and elapsed seconds (to the three
# decimals the tool prints) must equal the --json record of the cell
# with the stream's workload and seed under those policies.
set -euo pipefail

BUILD="${1:?usage: trace_replay_cli_test.sh BUILD_DIR}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

"$BUILD/bench/table_4_1_refbits" --refs=1 --reps=1 --jobs=2 \
    --record-trace="$SCRATCH/t41.trace" --json="$SCRATCH/t41.json" \
    > /dev/null

for cell in "MISS 5" "REF 8"; do
    set -- $cell
    "$BUILD/tools/spur_trace" replay "$SCRATCH/t41.trace" --dirty=SPUR \
        --ref="$1" --memory-mb="$2" > "$SCRATCH/replay-$1.txt"
    python3 - "$SCRATCH/t41.json" "$SCRATCH/replay-$1.txt" "$1" "$2" <<'EOF'
import json
import sys

json_path, replay_path, ref, memory_mb = sys.argv[1:]
records = {
    (r["workload"], r["seed"]): r
    for r in json.load(open(json_path))["records"]
    if r["dirty_policy"] == "SPUR" and r["ref_policy"] == ref
    and r["memory_mb"] == int(memory_mb)
}
# Table rows: stream | refs | misses | dirty faults | excess | page-ins |
# elapsed (s); the stream identity is "<workload>|seed=<seed>|...".
rows = [[c.strip() for c in line.split("|")]
        for line in open(replay_path) if "|seed=" in line]
if len(rows) != len(records) or not rows:
    sys.exit(f"{ref}/{memory_mb} MB: {len(rows)} streams replayed, "
             f"{len(records)} cells in the --json")
for row in rows:
    workload, seed = row[0], int(row[1].removeprefix("seed="))
    record = records[(workload, seed)]
    want = [str(record["refs_issued"]), str(record["page_ins"]),
            f"{record['elapsed_seconds']:.3f}"]
    got = [row[-6], row[-2], row[-1]]
    if got != want:
        sys.exit(f"{workload} seed {seed} at SPUR/{ref}/{memory_mb} MB: "
                 f"spur_trace replay printed refs, page-ins, elapsed "
                 f"{got}; the session's --json has {want}")
print(f"SPUR/{ref}/{memory_mb} MB: {len(rows)} streams match their cells")
EOF
done
