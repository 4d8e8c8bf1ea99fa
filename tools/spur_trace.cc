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
 *   spur_trace replay FILE [--dirty=NAME] [--ref=NAME] [--memory=N]
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
 */
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/args.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/core/system.h"
#include "src/sim/config.h"
#include "src/workload/trace.h"

namespace {

using spur::IsFlagArg;
using spur::MatchFlag;
using spur::ParsePositiveDouble;
using spur::ParseUnsigned;
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
          {"--memory=N", "memory size in MB (default 8)"}}},
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

/** Parses a workload name by its core::ToString spelling. */
std::optional<spur::core::WorkloadId>
WorkloadByName(const std::string& name)
{
    for (const spur::core::WorkloadId id : spur::core::kAllWorkloads) {
        if (name == spur::core::ToString(id)) {
            return id;
        }
    }
    return std::nullopt;
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
Record(const std::vector<std::string>& args)
{
    std::string out_path;
    std::string workload_name = "WORKLOAD1";
    bool all_scenarios = false;
    spur::core::RunConfig base;
    std::string value;
    for (const std::string& arg : args) {
        if (MatchFlag(arg, "out", &value)) {
            out_path = value;
        } else if (MatchFlag(arg, "workload", &value)) {
            workload_name = value;
        } else if (arg == "--all-scenarios") {
            all_scenarios = true;
        } else if (MatchFlag(arg, "seed", &value)) {
            if (!ParseUnsigned(value, &base.seed)) {
                std::cerr << "spur_trace: bad --seed '" << value << "'\n";
                return 2;
            }
        } else if (MatchFlag(arg, "refs", &value)) {
            if (!ParseUnsigned(value, &base.refs)) {
                std::cerr << "spur_trace: bad --refs '" << value << "'\n";
                return 2;
            }
        } else if (MatchFlag(arg, "intensity", &value)) {
            if (!ParsePositiveDouble(value, &base.intensity)) {
                std::cerr << "spur_trace: bad --intensity '" << value
                          << "'\n";
                return 2;
            }
        } else {
            std::cerr << "spur_trace: unknown record option '" << arg
                      << "'\n";
            return 2;
        }
    }
    if (out_path.empty()) {
        return Usage();
    }

    std::vector<spur::core::RunConfig> configs;
    if (all_scenarios) {
        for (const spur::core::WorkloadId id :
             spur::core::kScenarioLibrary) {
            spur::core::RunConfig config = base;
            config.workload = id;
            configs.push_back(config);
        }
    } else {
        const auto id = WorkloadByName(workload_name);
        if (!id) {
            std::cerr << "spur_trace: unknown workload '" << workload_name
                      << "'\n";
            return 2;
        }
        spur::core::RunConfig config = base;
        config.workload = *id;
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
Replay(const std::vector<std::string>& args)
{
    std::string path;
    auto dirty = spur::policy::DirtyPolicyKind::kSpur;
    auto ref = spur::policy::RefPolicyKind::kMiss;
    uint32_t memory_mb = 8;
    std::string value;
    for (const std::string& arg : args) {
        if (MatchFlag(arg, "dirty", &value)) {
            dirty = spur::policy::ParseDirtyPolicy(value);
        } else if (MatchFlag(arg, "ref", &value)) {
            ref = spur::policy::ParseRefPolicy(value);
        } else if (MatchFlag(arg, "memory", &value)) {
            uint64_t parsed = 0;
            if (!ParseUnsigned(value, &parsed) || parsed == 0) {
                std::cerr << "spur_trace: bad --memory '" << value
                          << "'\n";
                return 2;
            }
            memory_mb = static_cast<uint32_t>(parsed);
        } else if (IsFlagArg(arg)) {
            std::cerr << "spur_trace: unknown replay option '" << arg
                      << "'\n";
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            return Usage();
        }
    }
    if (path.empty()) {
        return Usage();
    }

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
Info(const std::vector<std::string>& args)
{
    if (args.size() != 1 || IsFlagArg(args[0])) {
        return Usage();
    }
    const int exit_code = Inspect(args[0], "");
    // info is a report, not a gate: a recovered-truncated file is
    // still a successful inspection.
    return (exit_code == 1) ? 1 : 0;
}

int
Validate(const std::vector<std::string>& args)
{
    std::string path;
    std::string repair_path;
    std::string value;
    for (const std::string& arg : args) {
        if (MatchFlag(arg, "out", &value)) {
            repair_path = value;
        } else if (IsFlagArg(arg)) {
            std::cerr << "spur_trace: unknown validate option '" << arg
                      << "'\n";
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            return Usage();
        }
    }
    if (path.empty()) {
        return Usage();
    }
    return Inspect(path, repair_path);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        return Usage();
    }
    const std::string mode = args.front();
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (mode == "record") {
        return Record(rest);
    }
    if (mode == "replay") {
        return Replay(rest);
    }
    if (mode == "info") {
        return Info(rest);
    }
    if (mode == "validate") {
        return Validate(rest);
    }
    return Usage();
}
