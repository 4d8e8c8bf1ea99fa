/**
 * @file
 * Quickstart: build a SPUR machine, run a small synthetic workload, and
 * print the event counters and the elapsed-time breakdown.
 *
 * Usage: example_quickstart [--memory-mb=N (8)] [--refs=M (4)] plus the
 *        session flags (src/runner/session.h)
 */
#include <cstdio>

#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/system.h"
#include "src/runner/session.h"
#include "src/sim/config.h"
#include "src/workload/driver.h"
#include "src/workload/workloads.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("example_quickstart", argc, argv,
                                 {runner::kMemoryMbFlag});
    const uint32_t memory_mb = session.MemoryMb(8);
    const uint64_t refs = session.Refs(4);

    // 1. Configure the prototype machine (Table 2.1 defaults), with the
    // page-in time scaled as in every table (core::kScaledPageInUs).
    sim::MachineConfig config = sim::MachineConfig::Prototype(memory_mb);
    config.page_in_us = core::kScaledPageInUs;

    // 2. Build the system with the policies SPUR shipped with.
    core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                            policy::RefPolicyKind::kMiss);

    // 3. Run a slice of the CAD-developer workload.
    workload::Driver driver(system, workload::MakeWorkload1(), refs,
                            /*seed=*/1);
    driver.Run();

    // 4. Finish the run: audit the machine's final state, then read its
    // counters and timing.
    const core::RunResult result =
        core::FinishRun(system.kernel(), driver.refs_issued());

    // 5. Report.
    const sim::EventCounts& ev = result.events;
    Table t("Quickstart: " + std::to_string(memory_mb) + " MB, " +
            std::to_string(refs / 1'000'000) + "M refs, SPUR dirty policy, "
            "MISS ref policy");
    t.SetHeader({"event", "count"});
    auto row = [&](const char* name, sim::Event e) {
        t.AddRow({name, Table::Num(ev.Get(e))});
    };
    t.AddRow({"total refs", Table::Num(ev.TotalRefs())});
    t.AddRow({"total misses", Table::Num(ev.TotalMisses())});
    row("dirty faults (N_ds)", sim::Event::kDirtyFault);
    row("  of which zero-fill (N_zfod)", sim::Event::kDirtyFaultZfod);
    row("dirty-bit misses (N_dm)", sim::Event::kDirtyBitMiss);
    row("write hits on clean blocks (N_w-hit)",
        sim::Event::kWriteHitCleanBlock);
    row("write-miss fills (N_w-miss)", sim::Event::kWriteMissFill);
    row("ref faults", sim::Event::kRefFault);
    row("ref clears", sim::Event::kRefClear);
    row("page faults", sim::Event::kPageFault);
    row("page-ins", sim::Event::kPageIn);
    row("zero fills", sim::Event::kZeroFill);
    row("dirty page-outs", sim::Event::kPageOutDirty);
    row("clean reclaims", sim::Event::kPageReclaimClean);
    row("daemon sweeps", sim::Event::kDaemonSweep);
    row("context switches", sim::Event::kContextSwitch);
    t.Print(stdout);

    Table b("Elapsed time breakdown");
    b.SetHeader({"bucket", "seconds"});
    for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
        const auto bucket = static_cast<sim::TimeBucket>(i);
        b.AddRow({ToString(bucket),
                  Table::Num(result.timing.Seconds(bucket), 3)});
    }
    b.AddRow({"TOTAL", Table::Num(result.elapsed_seconds, 3)});
    b.Print(stdout);

    stats::RunRecord record;
    record.workload = "WORKLOAD1";
    record.dirty_policy = "SPUR";
    record.ref_policy = "MISS";
    record.memory_mb = memory_mb;
    record.seed = 1;
    record.refs_issued = result.refs_issued;
    record.page_ins = result.page_ins;
    record.page_outs = result.page_outs;
    record.elapsed_seconds = result.elapsed_seconds;
    record.AddMetric("n_ds",
                     static_cast<double>(ev.Get(sim::Event::kDirtyFault)));
    record.AddMetric("total_misses",
                     static_cast<double>(ev.TotalMisses()));
    session.Record(std::move(record));
    return session.Finish();
}
