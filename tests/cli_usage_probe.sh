#!/usr/bin/env bash
# Every command-line binary rejects a bad command line before it does
# any work.
#
# Usage: tests/cli_usage_probe.sh BUILD_DIR
#
# Runs each built table/ablation/fig bench (micro_* parse with
# google-benchmark and are skipped) and each example with --json=FILE
# followed by one bad argument, and each tool subcommand (which take no
# --json) with the bad argument alone:
#
#   --no-such-flag   an unknown flag
#   --refs=abc       a malformed number
#   --refs=-1        a negative number
#   --refs 1         the removed "--name value" form (a bare value flag)
#
# Each run must exit 2 within 5 s, print nothing on stdout, name the
# offending flag on stderr, and leave no --json file behind.
set -uo pipefail

BUILD="${1:?usage: cli_usage_probe.sh BUILD_DIR}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

failures=0
runs=0

# probe JSON_FLAG COMMAND...: runs COMMAND [JSON_FLAG] with each bad
# argument in turn.
probe() {
    local json_flag="$1"
    shift
    local bad flag code problem
    for bad in "--no-such-flag" "--refs=abc" "--refs=-1" "--refs 1"; do
        # Word-splitting is intended: "--refs 1" is two words.
        # shellcheck disable=SC2086
        timeout 5 "$@" $json_flag $bad \
            > "$SCRATCH/stdout" 2> "$SCRATCH/stderr"
        code=$?
        runs=$((runs + 1))
        problem=""
        flag="${bad%%[= ]*}"
        if (( code != 2 )); then
            problem="exit $code, want 2"
        elif [[ -s "$SCRATCH/stdout" ]]; then
            problem="printed to stdout"
        elif ! grep -qF -- "$flag" "$SCRATCH/stderr"; then
            problem="stderr does not name $flag"
        elif [[ -e "$SCRATCH/out.json" ]]; then
            problem="wrote --json"
        fi
        if [[ -n "$problem" ]]; then
            echo "FAIL: ${*#"$BUILD"/} $json_flag $bad: $problem"
            sed 's/^/    /' "$SCRATCH/stderr" | head -5
            failures=$((failures + 1))
        fi
        rm -f "$SCRATCH/out.json"
    done
}

sessions=0
for binary in "$BUILD"/bench/* "$BUILD"/examples/example_*; do
    [[ -f "$binary" && -x "$binary" ]] || continue
    [[ "$(basename "$binary")" == micro_* ]] && continue
    probe "--json=$SCRATCH/out.json" "$binary"
    sessions=$((sessions + 1))
done
if (( sessions < 22 )); then
    echo "FAIL: only $sessions benches and examples under $BUILD"
    exit 1
fi

tools="$BUILD/tools"
for command in record replay info validate; do
    probe "" "$tools/spur_trace" "$command"
done
for command in explore conform; do
    probe "" "$tools/spur_model" "$command"
done
for command in check graph allows --list-rules; do
    probe "" "$tools/spur_lint" "$command"
done
probe "" "$tools/spur_lint"  # The flat form, `check` by default.

echo "$runs runs ($sessions benches and examples), $failures failed"
(( failures == 0 ))
