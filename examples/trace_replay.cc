/**
 * @file
 * Records one scenario's op stream into a SPUR-TRACE/1 library, then
 * replays it through every dirty-bit policy — the classical
 * trace-driven methodology the paper could not afford at paging scale
 * in 1989 (Section 2), applied to its own experiment.  The generators
 * being pure reverses that verdict: one generation pass is recorded
 * once and feeds five policy cells byte-identically.
 *
 * Usage: example_trace_replay [trace_path] [million_refs]
 *                             [--jobs=N] [--json=FILE]
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/common/args.h"
#include "src/common/log.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/core/system.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/workload/trace.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    const Args args(argc, argv);
    const auto& pos = args.positional();
    const std::string path =
        !pos.empty() ? pos[0] : "/tmp/spur_example.trc";
    const uint64_t refs =
        (pos.size() > 1 ? std::atoll(pos[1].c_str()) : 2) * 1'000'000ull;
    const uint64_t seed = 5;
    runner::BenchSession session("example_trace_replay", args);

    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);

    // 1. Record: run the flush-storm scenario once on a live machine,
    // teeing every WorkloadHost call into a trace stream.
    {
        core::RunConfig run;
        run.workload = core::WorkloadId::kFlushStorm;
        run.refs = refs;
        run.seed = seed;
        core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                                policy::RefPolicyKind::kMiss);
        const core::RecordedStream stream =
            core::RecordLiveStream(run, system);
        workload::TraceFileWriter writer;
        std::string error;
        if (!writer.Open(path, &error) ||
            !writer.AppendStream(stream.bytes, &error) ||
            !writer.Finish(&error)) {
            Fatal("example_trace_replay: " + error);
        }
        std::printf("recorded %llu ops (%llu accesses) to %s\n",
                    static_cast<unsigned long long>(stream.ops),
                    static_cast<unsigned long long>(stream.accesses),
                    path.c_str());
    }

    // 2. Replay under each dirty policy; each replay loads its own copy
    // of the library, so the five runs are fully independent.
    struct Replay {
        uint64_t refs_issued = 0;
        uint64_t misses = 0;
        uint64_t dirty_faults = 0;
        uint64_t excess = 0;
        uint64_t dirty_bit_misses = 0;
        double elapsed_seconds = 0;
    };
    const policy::DirtyPolicyKind kinds[] = {
        policy::DirtyPolicyKind::kMin, policy::DirtyPolicyKind::kFault,
        policy::DirtyPolicyKind::kFlush, policy::DirtyPolicyKind::kSpur,
        policy::DirtyPolicyKind::kWrite};
    Replay replays[5];
    runner::ParallelFor(5, session.jobs(), [&](size_t i) {
        core::SpurSystem system(config, kinds[i],
                                policy::RefPolicyKind::kMiss);
        const workload::ReplayStats stats =
            workload::ReplayTrace(path, system);
        const auto& ev = system.events();
        replays[i] = Replay{stats.refs_issued,
                            ev.TotalMisses(),
                            ev.Get(sim::Event::kDirtyFault),
                            ev.Get(sim::Event::kExcessFault),
                            ev.Get(sim::Event::kDirtyBitMiss),
                            system.timing().ElapsedSeconds()};
    });

    Table t("Same trace, every dirty-bit policy (8 MB machine)");
    t.SetHeader({"policy", "misses", "dirty faults", "excess", "dirty-bit "
                 "misses", "elapsed (s)"});
    for (size_t i = 0; i < 5; ++i) {
        const Replay& r = replays[i];
        t.AddRow({ToString(kinds[i]), Table::Num(r.misses),
                  Table::Num(r.dirty_faults), Table::Num(r.excess),
                  Table::Num(r.dirty_bit_misses),
                  Table::Num(r.elapsed_seconds, 3)});
        stats::RunRecord record;
        record.workload = "flush-storm-trace";
        record.dirty_policy = ToString(kinds[i]);
        record.ref_policy = "MISS";
        record.memory_mb = 8;
        record.seed = seed;
        record.refs_issued = r.refs_issued;
        record.elapsed_seconds = r.elapsed_seconds;
        record.AddMetric("misses", static_cast<double>(r.misses));
        record.AddMetric("n_ds", static_cast<double>(r.dirty_faults));
        record.AddMetric("n_ef", static_cast<double>(r.excess));
        record.AddMetric("n_dm",
                         static_cast<double>(r.dirty_bit_misses));
        session.Record(std::move(record));
    }
    t.Print(stdout);
    std::remove(path.c_str());
    return session.Finish();
}
