#!/usr/bin/env bash
# Every command-line binary rejects a bad command line before it does
# any work.
#
# Usage: tests/cli_usage_probe.sh BUILD_DIR
#
# Runs each built bench (micro_* included) and each example with
# --json=FILE followed by one bad argument, and each tool subcommand
# (which take no --json) with the bad argument alone:
#
#   --no-such-flag   an unknown flag
#   --refs=abc       a malformed number
#   --refs=-1        a negative number
#   --refs 1         the removed "--name value" form (a bare value flag)
#
# plus a --benchmark_* flag google-benchmark does not know for the
# micro benches, and the tools' policy flags with an unknown policy
# name.  Each run must exit 2 within 5 s, print nothing on stdout, name
# the offending flag on stderr, and leave no --json file behind.
set -uo pipefail

BUILD="${1:?usage: cli_usage_probe.sh BUILD_DIR}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

failures=0
runs=0

# probe_one JSON_FLAG BAD COMMAND...: runs COMMAND [JSON_FLAG] BAD.
probe_one() {
    local json_flag="$1" bad="$2"
    shift 2
    local flag code problem
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
}

# probe JSON_FLAG COMMAND...: runs COMMAND [JSON_FLAG] with each bad
# argument in turn.
probe() {
    local json_flag="$1"
    shift
    local bad
    for bad in "--no-such-flag" "--refs=abc" "--refs=-1" "--refs 1"; do
        probe_one "$json_flag" "$bad" "$@"
    done
}

sessions=0
micros=0
for binary in "$BUILD"/bench/* "$BUILD"/examples/example_*; do
    [[ -f "$binary" && -x "$binary" ]] || continue
    probe "--json=$SCRATCH/out.json" "$binary"
    if [[ "$(basename "$binary")" == micro_* ]]; then
        probe_one "--json=$SCRATCH/out.json" "--benchmark_no_such_flag" \
            "$binary"
        micros=$((micros + 1))
    else
        sessions=$((sessions + 1))
    fi
done
if (( sessions < 22 || micros < 4 )); then
    echo "FAIL: only $sessions benches and examples and $micros micro" \
         "benches under $BUILD"
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
# `graph` always prints DOT; its old --dot switch is an unknown flag.
probe_one "" "--dot" "$tools/spur_lint" graph
# A policy has one spelling, its ToString name.
probe_one "" "--dirty=bogus" "$tools/spur_trace" replay missing.trace
probe_one "" "--ref=bogus" "$tools/spur_trace" replay missing.trace
probe_one "" "--dirty=spur" "$tools/spur_trace" replay missing.trace
for command in explore conform; do
    probe_one "" "--policy=bogus" "$tools/spur_model" "$command"
    probe_one "" "--ref=bogus" "$tools/spur_model" "$command"
done

echo "$runs runs ($sessions benches and examples, $micros micro" \
     "benches), $failures failed"
(( failures == 0 ))
