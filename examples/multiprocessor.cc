/**
 * @file
 * Drives the 4-CPU SPUR multiprocessor: four workers sharing a result
 * segment under the Berkeley Ownership protocol, showing the coherency
 * traffic and the shared dirty-fault machinery (one fault per page for
 * the whole machine, because the PTE is shared).
 *
 * Usage: example_multiprocessor [--refs=M (2)] plus the session flags
 *        (src/runner/session.h)
 */
#include <cstdio>
#include <vector>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/mp_system.h"
#include "src/runner/session.h"
#include "src/workload/process.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("example_multiprocessor", argc, argv);
    constexpr unsigned cpus = 4;
    const uint64_t refs = session.Refs(2);

    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::MpSpurSystem machine(config, cpus,
                               policy::DirtyPolicyKind::kSpur,
                               policy::RefPolicyKind::kMiss);
    core::Kernel& kernel = machine.kernel();
    const uint64_t page = config.page_bytes;

    // Workers: private heaps, plus one segment shared with worker 0.
    std::vector<Pid> pids(cpus);
    for (unsigned cpu = 0; cpu < cpus; ++cpu) {
        pids[cpu] = kernel.CreateProcess();
        kernel.MapRegion(pids[cpu], workload::kHeapBase, 256 * page,
                         vm::PageKind::kHeap);
        if (cpu == 0) {
            kernel.MapRegion(pids[0], workload::kStackBase, 64 * page,
                             vm::PageKind::kHeap);
        } else {
            kernel.ShareSegment(pids[cpu], 3, pids[0], 3);
        }
    }

    Rng rng(17);
    const uint64_t per_cpu = refs / cpus;
    for (uint64_t i = 0; i < per_cpu; ++i) {
        for (unsigned cpu = 0; cpu < cpus; ++cpu) {
            const bool shared = rng.Chance(0.3);
            const ProcessAddr base =
                shared ? workload::kStackBase : workload::kHeapBase;
            const uint32_t span = shared ? 64 : 256;
            const ProcessAddr addr =
                base +
                static_cast<ProcessAddr>(rng.NextZipf(span, 0.8) * page +
                                         rng.NextBelow(128) * 32);
            machine.Access(cpu, MemRef{pids[cpu], addr,
                                       rng.Chance(0.15)
                                           ? AccessType::kWrite
                                           : AccessType::kRead});
        }
    }

    const core::RunResult result = core::FinishRun(kernel, per_cpu * cpus);
    const sim::EventCounts& ev = result.events;
    Table t(std::to_string(cpus) +
            "-CPU SPUR multiprocessor, 30% shared references");
    t.SetHeader({"quantity", "count"});
    t.AddRow({"total refs", Table::Num(ev.TotalRefs())});
    t.AddRow({"misses", Table::Num(ev.TotalMisses())});
    t.AddRow({"bus reads", Table::Num(ev.Get(sim::Event::kBusRead))});
    t.AddRow({"bus read-owned",
              Table::Num(ev.Get(sim::Event::kBusReadOwned))});
    t.AddRow({"ownership upgrades",
              Table::Num(ev.Get(sim::Event::kBusUpgrade))});
    t.AddRow({"cache-to-cache supplies",
              Table::Num(ev.Get(sim::Event::kBusCacheToCache))});
    t.AddRow({"peer invalidations",
              Table::Num(ev.Get(sim::Event::kBusInvalidation))});
    t.AddRow({"dirty faults (shared PTEs: once per page)",
              Table::Num(ev.Get(sim::Event::kDirtyFault))});
    t.AddRow({"dirty-bit misses (stale peer copies)",
              Table::Num(ev.Get(sim::Event::kDirtyBitMiss))});
    t.Print(stdout);
    std::printf(
        "\nNote the dirty-bit misses: a peer CPU caching a block while\n"
        "the page was clean later writes it after another CPU took the\n"
        "fault — exactly the cross-processor staleness the SPUR scheme's\n"
        "check-the-PTE-before-faulting rule was designed for.\n");

    stats::RunRecord record;
    record.workload = "mp_shared_workers";
    record.dirty_policy = "SPUR";
    record.ref_policy = "MISS";
    record.memory_mb = 8;
    record.seed = 17;
    record.refs_issued = result.refs_issued;
    record.AddMetric("cpus", static_cast<double>(cpus));
    record.AddMetric("misses", static_cast<double>(ev.TotalMisses()));
    record.AddMetric("bus_reads",
                     static_cast<double>(ev.Get(sim::Event::kBusRead)));
    record.AddMetric(
        "cache_to_cache",
        static_cast<double>(ev.Get(sim::Event::kBusCacheToCache)));
    record.AddMetric("dirty_faults",
                     static_cast<double>(ev.Get(sim::Event::kDirtyFault)));
    record.AddMetric(
        "dirty_bit_misses",
        static_cast<double>(ev.Get(sim::Event::kDirtyBitMiss)));
    session.Record(std::move(record));
    return session.Finish();
}
