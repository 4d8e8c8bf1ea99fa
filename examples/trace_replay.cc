/**
 * @file
 * Records one scenario's op stream into a SPUR-TRACE/1 library, then
 * replays it through every dirty-bit policy — the classical
 * trace-driven methodology the paper could not afford at paging scale
 * in 1989 (Section 2), applied to its own experiment.  The generators
 * being pure reverses that verdict: one generation pass is recorded
 * once, loaded once, and feeds five policy cells byte-identically, on
 * the scaled machine every table runs.
 *
 * Usage: example_trace_replay [--refs=M (2)] plus the session flags
 *        (src/runner/session.h); the trace lives in /tmp/spur_example.trc
 *        until the run ends
 */
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/workload/trace.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("example_trace_replay", argc, argv);
    const std::string path = "/tmp/spur_example.trc";
    const uint64_t refs = session.Refs(2);
    const uint64_t seed = 5;

    // 1. Record: run the flush-storm scenario once as a RunOnce cell
    // whose op stream a recorder captures (the --record-trace path),
    // then load the library back.
    core::RunConfig run;
    run.workload = core::WorkloadId::kFlushStorm;
    run.refs = refs;
    run.seed = seed;
    core::TraceRecordSession recorder;
    workload::TraceLibrary library;
    std::string error;
    if (!recorder.Open(path, &error)) {
        Fatal("example_trace_replay: " + error);
    }
    run.trace_record = &recorder;
    core::RunOnce(run);
    if (!recorder.Finish(&error) || !library.Load(path, &error)) {
        Fatal("example_trace_replay: " + error);
    }
    const workload::TraceStream& stream = library.streams().front();
    std::printf("recorded %llu ops (%llu accesses) to %s\n",
                static_cast<unsigned long long>(stream.op_count),
                static_cast<unsigned long long>(stream.accesses),
                path.c_str());

    // 2. Replay under each dirty policy: five RunOnce cells share the
    // one loaded library read-only, as --replay-trace cells do.
    const policy::DirtyPolicyKind kinds[] = {
        policy::DirtyPolicyKind::kMin, policy::DirtyPolicyKind::kFault,
        policy::DirtyPolicyKind::kFlush, policy::DirtyPolicyKind::kSpur,
        policy::DirtyPolicyKind::kWrite};
    std::vector<core::RunConfig> configs;
    for (const policy::DirtyPolicyKind kind : kinds) {
        core::RunConfig config = run;
        config.dirty = kind;
        config.trace_record = nullptr;
        config.trace_replay = &library;
        configs.push_back(config);
    }
    const auto replays = runner::RunAll(configs, session.jobs());

    Table t("Same trace, every dirty-bit policy (8 MB machine)");
    t.SetHeader({"policy", "misses", "dirty faults", "excess", "dirty-bit "
                 "misses", "elapsed (s)"});
    for (size_t i = 0; i < 5; ++i) {
        const core::RunResult& r = replays[i];
        const uint64_t misses = r.events.TotalMisses();
        const uint64_t dirty_faults = r.events.Get(sim::Event::kDirtyFault);
        const uint64_t excess = r.events.Get(sim::Event::kExcessFault);
        const uint64_t dirty_bit_misses =
            r.events.Get(sim::Event::kDirtyBitMiss);
        t.AddRow({ToString(kinds[i]), Table::Num(misses),
                  Table::Num(dirty_faults), Table::Num(excess),
                  Table::Num(dirty_bit_misses),
                  Table::Num(r.elapsed_seconds, 3)});
        stats::RunRecord record;
        record.workload = "flush-storm-trace";
        record.dirty_policy = ToString(kinds[i]);
        record.ref_policy = "MISS";
        record.memory_mb = 8;
        record.seed = seed;
        record.refs_issued = r.refs_issued;
        record.elapsed_seconds = r.elapsed_seconds;
        record.AddMetric("misses", static_cast<double>(misses));
        record.AddMetric("n_ds", static_cast<double>(dirty_faults));
        record.AddMetric("n_ef", static_cast<double>(excess));
        record.AddMetric("n_dm", static_cast<double>(dirty_bit_misses));
        session.Record(std::move(record));
    }
    t.Print(stdout);
    std::remove(path.c_str());
    return session.Finish();
}
