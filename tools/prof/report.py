#!/usr/bin/env python3
"""Symbolizes a tools/prof sampler profile and prints self time per layer.

    python3 tools/prof/report.py PROFILE [--top N] [--exe PATH]
                                 [--addr2line PATH]

PROFILE is the file the LD_PRELOAD sampler (sampler.cc) wrote to
$SPUR_PROF_OUT.  Every sampled program counter is mapped to its
inline-aware call chain with `addr2line -a -i -f -C`, and the sample is
charged to one simulator layer: the innermost frame that matches a rule
in LAYERS decides, so a cache lookup inlined into the translator counts
as xlate and an event-counter add inlined into the hit loop counts as
the hit loop.  Build with -g (Release codegen plus line tables) for
exact inline chains; without it only out-of-line functions resolve.

Prints the layer table (samples and share of all samples), then the top
N source lines by self samples (default 15).  Exits 1 when the profile
holds no samples.
"""

import argparse
import collections
import re
import subprocess
import sys

# (layer, pattern on the demangled function name without its template
# arguments and parameters), first match wins per frame.  Frames that
# match nothing (std::, sim:: counters, cache-line accessors) are
# transparent: their caller decides.
LAYERS = [
    ("page table", r"spur::pt::PageTable::(Ensure|Find|Probe|Home|Grow)"),
    ("xlate", r"spur::xlate::"),
    ("fill", r"spur::cache::(VirtualCache::(Fill|Flush|Evict)"
             r"|\{anon\}::ScanPage)"),
    ("hit loop", r"WriteHitFastPath"),
    ("policy", r"spur::policy::"),
    ("vm", r"spur::(vm|mem)::"),
    ("miss", r"spur::core::(AccessPath::Miss"
             r"|Kernel::(ResidentPte|ChargeDirty|ChargeFill))"),
    ("hit loop", r"spur::core::(SpurSystem::AccessBatchImpl"
                 r"|AccessPath::Access|\{anon\}::ScanHits)"),
    ("decode", r"Decode|Replay|RecoverTrace|AccessRunEnds|ClassifyWindow"
               r"|WindowMasks|GatherHighBits|PopCount|CompactVarint"
               r"|VarintSwar|VarintPext|RunEnds|PrefixXor|ScalarRun"
               r"|Avx512|spur::workload::avx512::"),
    ("encode", r"Encode|PutVarint|RecordingHost"),
    ("digest", r"Digest"),
    ("generation", r"spur::workload::|spur::Rng::|Zipf"),
]
ORDER = ["decode", "hit loop", "miss", "page table", "xlate", "fill",
         "policy", "vm", "generation", "encode", "digest", "other",
         "outside the binary"]
COMPILED = [(layer, re.compile(pattern)) for layer, pattern in LAYERS]
ADDRESS = re.compile(r"0x[0-9a-f]+")


def read_profile(path):
    """Returns (header dict, list of pcs, number of process blocks)."""
    header = {}
    pcs = []
    processes = 0
    with open(path) as f:
        if f.readline().strip() != "spur-prof/1":
            raise ValueError(f"{path}: not a spur-prof/1 profile")
        for line in f:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition(" ")
            if key in ("exe", "base", "interval_us"):
                header[key] = value
            elif key == "process":
                processes += 1
            else:
                pcs.append(int(key, 16))
    return header, pcs, processes


def symbolize(exe, addrs, addr2line):
    """Maps each address to its inline chain [(function, file:line)],
    innermost first; '??' entries mean addr2line could not resolve it."""
    if not addrs:
        return {}
    text = "\n".join(f"{a:#x}" for a in addrs) + "\n"
    out = subprocess.run([addr2line, "-a", "-i", "-f", "-C", "-e", exe],
                         input=text, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    chains = {}
    current = None
    i = 0
    while i < len(out):
        if ADDRESS.fullmatch(out[i]):
            current = chains.setdefault(int(out[i], 16), [])
            i += 1
        elif current is not None and i + 1 < len(out):
            current.append((out[i], out[i + 1]))
            i += 2
        else:
            i += 1
    return chains


def layer_of(chain):
    """The layer of one sample's inline chain."""
    if not chain or chain[0][0] == "??":
        return "outside the binary"
    for function, _ in chain:
        name = bare_name(function)
        for layer, pattern in COMPILED:
            if pattern.search(name):
                return layer
    return "other"


def short_name(function):
    """Drops the parameter list (and anything after it) from a
    demangled name, keeping template arguments."""
    function = function.replace("(anonymous namespace)", "{anon}")
    depth = 0
    for i, ch in enumerate(function):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return function[:i]
    return function


def bare_name(function):
    """short_name() without template arguments:
    `void spur::core::SpurSystem::AccessBatchImpl<(...)0, ...>` becomes
    `void spur::core::SpurSystem::AccessBatchImpl`, so a policy kind in
    a template argument does not read as policy code."""
    name = short_name(function)
    kept = []
    depth = 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            kept.append(ch)
    return "".join(kept)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--exe", help="executable (default: as recorded)")
    parser.add_argument("--addr2line", default="addr2line")
    args = parser.parse_args()

    header, pcs, processes = read_profile(args.profile)
    exe = args.exe or header.get("exe", "")
    base = int(header.get("base", "0"), 16)
    counts = collections.Counter(pc - base for pc in pcs)
    chains = symbolize(exe, sorted(a for a in counts if a >= 0),
                       args.addr2line)

    layers = collections.Counter()
    lines = collections.Counter()
    for addr, n in counts.items():
        chain = chains.get(addr, [])
        layer = layer_of(chain)
        layers[layer] += n
        if layer != "outside the binary":
            function, where = chain[0]
            where = re.sub(r".*/(src|spur_bench|bench|tools)/", r"\1/",
                           where)
            where = re.sub(r" \(discriminator \d+\)$", "", where)
            lines[(layer, short_name(function), where)] += n

    total = sum(counts.values())
    print(f"spur-prof: {exe}: {total} samples from {processes} "
          f"process(es), one per {header.get('interval_us', '?')} us of "
          f"CPU time requested")
    if total == 0:
        print("no samples", file=sys.stderr)
        return 1
    print(f"{'layer':<20}{'samples':>9}{'share':>9}")
    for layer in ORDER:
        n = layers[layer]
        print(f"{layer:<20}{n:>9}{100.0 * n / total:>8.1f}%")
    print(f"{'total':<20}{total:>9}{100.0:>8.1f}%")
    if args.top > 0:
        print(f"\ntop {args.top} source lines (innermost frame):")
        for (layer, function, where), n in lines.most_common(args.top):
            print(f"{100.0 * n / total:>6.1f}%  {layer:<11} "
                  f"{where}  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
