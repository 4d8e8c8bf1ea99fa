/**
 * @file
 * Operator tool for SPUR-TRACE/1 workload-trace libraries (DESIGN.md
 * §19).
 *
 *   spur_trace record --out=FILE [--workload=NAME | --all-scenarios]
 *                     [--seed=N] [--refs=N] [--intensity=F]
 *       Generates the named workload (or the whole scenario library)
 *       through the counts-only host and appends one stream per
 *       workload to FILE.  Pid normalization makes the bytes identical
 *       to what a live `--record-trace` run would capture, at a
 *       fraction of the cost — no cache or VM simulation runs.
 *
 *   spur_trace replay FILE [--dirty=NAME] [--ref=NAME] [--memory-mb=N]
 *       Replays every stream of FILE through a fresh SPUR machine per
 *       stream and prints the resulting counters — the quick look at
 *       what a recorded workload does under one policy choice.
 *
 *   spur_trace info FILE
 *       Prints the streams of FILE (identity, ops, accesses, refs,
 *       digest) without replaying.  A truncated file prints what
 *       recovered plus the recovery note; corruption is exit 1.
 *
 *   spur_trace validate [--out=FILE] TRACE
 *       Integrity check with the §13 exit-code convention: 0 for a
 *       complete verified file, 2 for a truncated file whose
 *       complete-stream prefix recovered (a killed recorder's leavings),
 *       1 for corruption.  With --out, writes the recovered streams
 *       back out as a complete trace — the repair path the CI
 *       kill-recovery job exercises.
 *
 * Each subcommand accepts only the flags listed for it, in the
 * "--name=value" form (src/common/args.h); anything else is a usage
 * error, exit 2.
 */
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/args.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/core/system.h"
#include "src/runner/session.h"
#include "src/sim/config.h"
#include "src/workload/trace.h"

namespace {

using spur::Args;
using spur::FlagKind;
using spur::Table;
using spur::ToolCommand;

int
Usage()
{
    const std::vector<ToolCommand> commands = {
        {"record --out=FILE [options]",
         "generate workload op streams (counts-only host; byte-identical "
         "to a live --record-trace) into a trace library",
         {{"--out=FILE", "trace library to create (required)"},
          {"--workload=NAME", "one workload (default WORKLOAD1)"},
          {"--all-scenarios",
           "record the whole scenario library instead of one workload"},
          {"--seed=N", "driver seed (default 1)"},
          {"--refs=N", "reference budget (default: workload's own)"},
          {"--intensity=F", "dev-machine intensity (default 1.0)"}}},
        {"replay FILE [options]",
         "replay every stream through a fresh SPUR machine and print "
         "the counters",
         {{"--dirty=NAME", "dirty-bit policy (default SPUR)"},
          {"--ref=NAME", "reference-bit policy (default MISS)"},
          {"--memory-mb=N", "memory size in MB (default 8)"}}},
        {"info FILE",
         "list the streams (identity, ops, accesses, refs, digest); "
         "prints the recovery note for truncated files",
         {}},
        {"validate [--out=FILE] TRACE",
         "integrity check: exit 0 complete, 2 truncated-but-recovered, "
         "1 corrupt",
         {{"--out=FILE",
           "write the recovered streams back out as a complete trace"}}},
    };
    std::cerr << spur::FormatToolUsage(
        "spur_trace",
        "SPUR-TRACE/1 workload-trace tool: record scenario op streams "
        "once, inspect\nand validate the library, and replay it through "
        "any policy choice.",
        commands);
    return 2;
}

/** Records one workload's stream into @p writer; false on I/O error. */
bool
RecordOne(const spur::core::RunConfig& config,
          spur::workload::TraceFileWriter& writer)
{
    spur::workload::CountingHost host(
        spur::sim::MachineConfig::Prototype(config.memory_mb));
    const spur::core::RecordedStream stream =
        spur::core::RecordLiveStream(config, host);
    std::string error;
    if (!writer.AppendStream(stream.bytes, &error)) {
        std::cerr << "spur_trace: " << error << "\n";
        return false;
    }
    std::cout << "recorded '"
              << spur::core::TraceMetaFor(config).Identity()
              << "': " << stream.ops << " ops, " << stream.accesses
              << " accesses\n";
    return true;
}

int
Record(int argc, char** argv)
{
    const Args args(argc, argv,
                    {{"out", FlagKind::kText},
                     spur::runner::WorkloadFlag(),
                     {"all-scenarios"},
                     {"seed", FlagKind::kUnsigned},
                     {"refs", FlagKind::kUnsigned},
                     {"intensity", FlagKind::kPositive}},
                    /*max_positionals=*/0, /*first=*/2);
    const std::string out_path = args.GetString("out");
    if (out_path.empty()) {
        return Usage();
    }
    spur::core::RunConfig base;
    base.seed = args.GetUnsigned("seed", base.seed);
    base.refs = args.GetUnsigned("refs", base.refs);
    base.intensity = args.GetDouble("intensity", base.intensity);

    std::vector<spur::core::RunConfig> configs;
    if (args.Has("all-scenarios")) {
        for (const spur::core::WorkloadId id :
             spur::core::kScenarioLibrary) {
            spur::core::RunConfig config = base;
            config.workload = id;
            configs.push_back(config);
        }
    } else {
        spur::core::RunConfig config = base;
        config.workload = *spur::core::ParseWorkload(
            args.GetString("workload", "WORKLOAD1"));
        configs.push_back(config);
    }

    spur::workload::TraceFileWriter writer;
    std::string error;
    if (!writer.Open(out_path, &error)) {
        std::cerr << "spur_trace: " << error << "\n";
        return 1;
    }
    for (const spur::core::RunConfig& config : configs) {
        if (!RecordOne(config, writer)) {
            return 1;
        }
    }
    if (!writer.Finish(&error)) {
        std::cerr << "spur_trace: " << error << "\n";
        return 1;
    }
    std::cout << out_path << ": " << configs.size() << " stream"
              << (configs.size() == 1 ? "" : "s") << "\n";
    return 0;
}

int
Replay(int argc, char** argv)
{
    const Args args(argc, argv,
                    {spur::runner::DirtyPolicyFlag("dirty"),
                     spur::runner::RefPolicyFlag("ref"),
                     spur::runner::kMemoryMbFlag},
                    /*max_positionals=*/1, /*first=*/2);
    if (args.positional().empty()) {
        return Usage();
    }
    const std::string& path = args.positional()[0];
    const auto dirty =
        *spur::policy::ParseDirtyPolicy(args.GetString("dirty", "SPUR"));
    const auto ref =
        *spur::policy::ParseRefPolicy(args.GetString("ref", "MISS"));
    const auto memory_mb =
        static_cast<uint32_t>(args.GetUnsigned("memory-mb", 8));

    spur::workload::TraceLibrary library;
    std::string error;
    if (!library.Load(path, &error)) {
        std::cerr << "spur_trace: " << error << "\n";
        return 1;
    }

    Table t(path + " under " + spur::policy::ToString(dirty) + "/" +
            spur::policy::ToString(ref) + " at " +
            std::to_string(memory_mb) + " MB");
    t.SetHeader({"stream", "refs", "misses", "dirty faults", "excess",
                 "page-ins", "elapsed (s)"});
    const spur::sim::MachineConfig config =
        spur::sim::MachineConfig::Prototype(memory_mb);
    for (const spur::workload::TraceStream& stream : library.streams()) {
        spur::core::SpurSystem system(config, dirty, ref);
        const spur::workload::ReplayStats stats =
            spur::workload::ReplayStream(stream, system);
        const auto& ev = system.events();
        t.AddRow({stream.meta.Identity(), Table::Num(stats.refs_issued),
                  Table::Num(ev.TotalMisses()),
                  Table::Num(ev.Get(spur::sim::Event::kDirtyFault)),
                  Table::Num(ev.Get(spur::sim::Event::kExcessFault)),
                  Table::Num(ev.Get(spur::sim::Event::kPageIn)),
                  Table::Num(system.timing().ElapsedSeconds(), 3)});
    }
    t.Print(stdout);
    return 0;
}

/** Shared by info/validate: recover @p path, report, pick the exit. */
int
Inspect(const std::string& path, const std::string& repair_path)
{
    std::string error;
    const auto recovered =
        spur::workload::RecoverTraceFile(path, &error);
    if (!recovered) {
        std::cerr << "spur_trace: " << path << ": " << error << "\n";
        return 1;
    }
    for (const spur::workload::TraceStream& stream : recovered->streams) {
        std::printf("  %s: %llu ops, %llu accesses, %llu refs, digest "
                    "%016llx\n",
                    stream.meta.Identity().c_str(),
                    static_cast<unsigned long long>(stream.op_count),
                    static_cast<unsigned long long>(stream.accesses),
                    static_cast<unsigned long long>(stream.refs_issued),
                    static_cast<unsigned long long>(stream.digest));
    }
    if (recovered->complete) {
        std::printf("%s: ok (%zu stream%s, trailer verified)\n",
                    path.c_str(), recovered->streams.size(),
                    recovered->streams.size() == 1 ? "" : "s");
    } else {
        std::printf("%s: truncated — %s\n", path.c_str(),
                    recovered->note.c_str());
    }
    if (!repair_path.empty()) {
        std::vector<std::string_view> frames;
        frames.reserve(recovered->streams.size());
        for (const spur::workload::TraceStream& stream :
             recovered->streams) {
            frames.push_back(stream.framed);
        }
        const std::string bytes = spur::workload::EncodeTraceFile(frames);
        std::FILE* f = std::fopen(repair_path.c_str(), "wb");
        if (f == nullptr ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) !=
                bytes.size()) {
            std::cerr << "spur_trace: cannot write '" << repair_path
                      << "'\n";
            if (f != nullptr) {
                std::fclose(f);
            }
            return 1;
        }
        std::fclose(f);
        std::printf("%s: %zu stream%s (complete)\n", repair_path.c_str(),
                    recovered->streams.size(),
                    recovered->streams.size() == 1 ? "" : "s");
    }
    return recovered->complete ? 0 : 2;
}

int
Info(int argc, char** argv)
{
    const Args args(argc, argv, {}, /*max_positionals=*/1, /*first=*/2);
    if (args.positional().empty()) {
        return Usage();
    }
    const int exit_code = Inspect(args.positional()[0], "");
    // info is a report, not a gate: a recovered-truncated file is
    // still a successful inspection.
    return (exit_code == 1) ? 1 : 0;
}

int
Validate(int argc, char** argv)
{
    const Args args(argc, argv, {{"out", FlagKind::kText}},
                    /*max_positionals=*/1, /*first=*/2);
    if (args.positional().empty()) {
        return Usage();
    }
    return Inspect(args.positional()[0], args.GetString("out"));
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string mode = (argc > 1) ? argv[1] : "";
    if (mode == "record") {
        return Record(argc, argv);
    }
    if (mode == "replay") {
        return Replay(argc, argv);
    }
    if (mode == "info") {
        return Info(argc, argv);
    }
    if (mode == "validate") {
        return Validate(argc, argv);
    }
    return Usage();
}
