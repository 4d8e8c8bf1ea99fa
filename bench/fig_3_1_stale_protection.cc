/**
 * @file
 * Reproduces Figure 3.1 — "Example of Multiple Cache Blocks" — by driving
 * the real machine through the scenario the figure illustrates:
 *
 *   1. Two blocks of page A are brought into the cache while the page's
 *      protection is read-only (the FAULT policy's initial state for
 *      writable pages).
 *   2. The first write faults; the handler upgrades the PTE to
 *      read-write.
 *   3. A write to the *other* previously cached block still sees the
 *      stale read-only copy in its cache line and faults again — the
 *      excess fault.
 *
 * The same scenario is then replayed under the SPUR dirty-bit-miss
 * mechanism, where step 3 costs a 25-cycle dirty-bit miss instead of a
 * 1000-cycle fault.
 *
 * Flags: the session flags (src/runner/session.h), for uniformity
 */
#include <cstdio>

#include "src/common/table.h"
#include "src/core/system.h"
#include "src/runner/session.h"
#include "src/sim/config.h"
#include "src/workload/process.h"

namespace {

using namespace spur;

/** Final event counters after the four-step scenario. */
struct ScenarioTotals {
    uint64_t necessary = 0;
    uint64_t excess = 0;
    uint64_t dirty_bit_misses = 0;
    uint64_t fault_aux_cycles = 0;
};

ScenarioTotals
RunScenario(policy::DirtyPolicyKind dirty, Table* out)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::SpurSystem system(config, dirty, policy::RefPolicyKind::kMiss);
    const Pid pid = system.CreateProcess();
    system.MapRegion(pid, workload::kHeapBase, config.page_bytes,
                     vm::PageKind::kHeap);

    const ProcessAddr block0 = workload::kHeapBase;
    const ProcessAddr block1 = workload::kHeapBase +
                               static_cast<ProcessAddr>(config.block_bytes);

    auto snapshot = [&](const char* step) {
        const auto& ev = system.events();
        out->AddRow({step,
                     Table::Num(ev.Get(sim::Event::kDirtyFault)),
                     Table::Num(ev.Get(sim::Event::kExcessFault)),
                     Table::Num(ev.Get(sim::Event::kDirtyBitMiss)),
                     Table::Num(system.timing().Get(sim::TimeBucket::kFault) +
                                system.timing().Get(
                                    sim::TimeBucket::kDirtyAux))});
    };

    // Touch the page with a read first so the zero-fill dirty fault does
    // not conflate the picture: the page is resident and clean, exactly
    // the figure's starting point.
    system.Access(pid, block0, AccessType::kRead);
    system.Access(pid, block1, AccessType::kRead);
    snapshot("blocks 0,1 read in (page clean, cached PR=RO)");

    system.Access(pid, block0, AccessType::kWrite);
    snapshot("write block 0: necessary fault, PTE now RW");

    system.Access(pid, block1, AccessType::kWrite);
    snapshot("write block 1: stale cached state");

    system.Access(pid, block1, AccessType::kWrite);
    snapshot("write block 1 again: proceeds normally");

    const auto& ev = system.events();
    return ScenarioTotals{
        ev.Get(sim::Event::kDirtyFault), ev.Get(sim::Event::kExcessFault),
        ev.Get(sim::Event::kDirtyBitMiss),
        system.timing().Get(sim::TimeBucket::kFault) +
            system.timing().Get(sim::TimeBucket::kDirtyAux)};
}

void
RecordScenario(runner::BenchSession* session, policy::DirtyPolicyKind dirty,
               const ScenarioTotals& totals)
{
    stats::RunRecord record;
    record.workload = "fig_3_1_scenario";
    record.dirty_policy = ToString(dirty);
    record.memory_mb = 8;
    record.AddMetric("necessary_faults",
                     static_cast<double>(totals.necessary));
    record.AddMetric("excess_faults", static_cast<double>(totals.excess));
    record.AddMetric("dirty_bit_misses",
                     static_cast<double>(totals.dirty_bit_misses));
    record.AddMetric("fault_aux_cycles",
                     static_cast<double>(totals.fault_aux_cycles));
    session->Record(std::move(record));
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("fig_3_1_stale_protection", argc, argv);

    std::printf("Figure 3.1: writes to previously cached blocks after the\n"
                "page's first dirty fault.\n\n");

    Table fault("FAULT policy (emulate dirty bits with protection)");
    fault.SetHeader({"step", "necessary", "excess", "dirty-bit misses",
                     "fault+aux cycles"});
    RecordScenario(&session, policy::DirtyPolicyKind::kFault,
                   RunScenario(policy::DirtyPolicyKind::kFault, &fault));
    fault.Print(stdout);
    std::printf("\n");

    Table spurp("SPUR policy (cached page dirty bit + dirty-bit miss)");
    spurp.SetHeader({"step", "necessary", "excess", "dirty-bit misses",
                     "fault+aux cycles"});
    RecordScenario(&session, policy::DirtyPolicyKind::kSpur,
                   RunScenario(policy::DirtyPolicyKind::kSpur, &spurp));
    spurp.Print(stdout);

    std::printf(
        "\nThe excess fault costs t_ds = 1000 cycles under FAULT; the same\n"
        "event is a t_dm = 25 cycle dirty-bit miss under SPUR.\n");
    return session.Finish();
}
