#!/usr/bin/env python3
"""Paired comparison of two sets of spur_bench runs.

    python3 spur_bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds spur-bench/1 lines as run.sh prints them.  Make at least
ten pairs, alternating which commit runs first, with the same seeds and
--seconds on both sides:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        first=parent; second=change
        [ $((seed % 2)) -eq 0 ] && first=change && second=parent
        (cd $first && bash spur_bench/run.sh --seed $seed) >> $first.jsonl
        (cd $second && bash spur_bench/run.sh --seed $seed) >> $second.jsonl
    done

The i-th run of a workload in one file is paired with the i-th run of it
in the other.  One row per workload and end-to-end metric gives the pair
count, each side's median and quartiles (of the per-run medians), the
share of pairs the change wins (ties count for neither side), and a
verdict:

    gain        at least ten pairs, the change wins at least 9 in 10,
                and the medians differ by more than the parent's
                interquartile range
    regression  the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json
    unresolved  a gain with fewer than ten pairs, or the parent's
                interquartile range exceeds the bound and not every
                change run beats every parent run
    no change   otherwise

Paired runs with the same seed must have identical cell digests and
simulated seconds; a difference is reported and fails the comparison.
Exit status: 1 on any regression or digest difference, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path):
    """Runs by workload, in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            doc = json.loads(line)
            runs.setdefault(doc["workload"], []).append(doc)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, metric):
    """The row's verdict for one metric's per-run values."""
    sign = 1 if metric["better"] == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    if sign * (pm - cm) > metric["bound"] * pm:
        return share, "regression"
    if share >= 0.9 and abs(cm - pm) > p3 - p1:
        return share, "gain" if len(parent) >= 10 else "unresolved"
    disjoint = (min(change) > max(parent) if sign > 0
                else max(change) < min(parent))
    if p3 - p1 > metric["bound"] * pm and not disjoint:
        return share, "unresolved"
    return share, "no change"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    failed = False
    print(f"{'workload':14} {'metric':19} {'pairs':>5}  "
          f"{'parent median [q1, q3]':>36}  {'change median [q1, q3]':>36}"
          f"  {'win':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        pairs = list(zip(parent[workload], change[workload]))
        if len(pairs) < 10:
            print(f"# {workload}: only {len(pairs)} pair(s); "
                  "the rule wants at least 10", file=sys.stderr)
        for p, c in pairs:
            if p["seed"] == c["seed"] and (p["digests"] != c["digests"] or
                                           p["sim_s"] != c["sim_s"]):
                print(f"# {workload} seed {p['seed']}: cell digests or "
                      "sim_s differ", file=sys.stderr)
                failed = True
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            share, row = verdict(pv, cv, metric)
            failed |= row == "regression"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{workload:14} {name:19} {len(pairs):5}  "
                  f"{pm:12.5g} [{p1:10.5g}, {p3:10.5g}]  "
                  f"{cm:12.5g} [{c1:10.5g}, {c3:10.5g}]  "
                  f"{share:5.2f}  {row}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
