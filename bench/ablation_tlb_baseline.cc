/**
 * @file
 * The introduction's premise, measured: a virtual-address cache vs. the
 * conventional TLB + physical-cache machine on identical workloads.
 *
 *  - The TLB machine translates on *every* reference (a serial cycle,
 *    plus page-table walks on TLB misses) but gets reference and dirty
 *    bits for free.
 *  - The SPUR machine translates only on cache misses but pays the
 *    Section 3/4 bit-maintenance machinery.
 *
 * Reported: elapsed time, translation time, bit-maintenance events, and
 * the net advantage — quantifying "virtual address caches generally
 * provide faster access times than physical address caches".
 *
 * Flags: --memory-mb=N (default 8), plus the session flags
 *        (src/runner/session.h): --refs=M (millions, default 6),
 *        --seed=S (default 13), --jobs=N, --json=FILE
 */
#include <cstdio>
#include <utility>

#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/tlb_system.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/workload/driver.h"

namespace {

using namespace spur;

/** @p config's workload on the TLB + physical-cache machine, with
 *  RunOnce's budget, quantum and page-in latency. */
core::RunResult
RunTlb(const core::RunConfig& config)
{
    sim::MachineConfig machine =
        sim::MachineConfig::Prototype(config.memory_mb);
    machine.page_in_us = core::kScaledPageInUs;
    core::TlbSystem system(machine);
    workload::WorkloadSpec spec = core::SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    const uint64_t refs =
        (config.refs != 0) ? config.refs : core::DefaultRefs(config.workload);
    workload::Driver driver(system, std::move(spec), refs, config.seed,
                            slice_refs);
    driver.Run();
    return core::FinishRun(system.kernel(), driver.refs_issued());
}

/** Bit-maintenance events: SPUR's dirty and reference faults, dirty-bit
 *  misses and reference clears; the TLB machine's reference clears. */
uint64_t
BitEvents(const core::RunResult& r, bool spur)
{
    const sim::EventCounts& ev = r.events;
    return ev.Get(sim::Event::kRefClear) +
           (spur ? ev.Get(sim::Event::kDirtyFault) +
                       ev.Get(sim::Event::kDirtyBitMiss) +
                       ev.Get(sim::Event::kRefFault)
                 : 0);
}

/** Seconds in SPUR's software bit faults (dirty and reference). */
double
BitFaultSeconds(const core::RunResult& r)
{
    const sim::MachineConfig& config = r.timing.config();
    return static_cast<double>((r.events.Get(sim::Event::kDirtyFault) +
                                r.events.Get(sim::Event::kRefFault)) *
                               config.t_fault) *
           config.cpu_cycle_ns * 1e-9;
}

}  // namespace

int
main(int argc, char** argv)
{
    runner::BenchSession session("ablation_tlb_baseline", argc, argv,
                                 {runner::kMemoryMbFlag});
    const uint64_t refs = session.Refs(6);
    const uint32_t mem = session.MemoryMb(8);
    const uint64_t seed = session.Seed(13);

    Table t("Virtual-address cache (SPUR) vs. TLB + physical cache, "
            "identical workloads at " + std::to_string(mem) + " MB");
    t.SetHeader({"workload", "machine", "xlate (s)", "bit events",
                 "bit-fault (s)", "page-ins", "elapsed (s)"});

    // 2 workloads x 2 machines, each with a private system: the four
    // cells run concurrently and the table is assembled afterwards.
    const core::WorkloadId workloads[] = {core::WorkloadId::kSlc,
                                          core::WorkloadId::kWorkload1};
    core::RunResult runs[2][2];  // [workload][0=SPUR, 1=TLB]
    runner::ParallelFor(4, session.jobs(), [&](size_t i) {
        core::RunConfig config;
        config.workload = workloads[i / 2];
        config.memory_mb = mem;
        config.refs = refs;
        config.seed = seed;
        runs[i / 2][i % 2] =
            (i % 2 == 0) ? core::RunOnce(config) : RunTlb(config);
    });

    for (size_t w = 0; w < 2; ++w) {
        const core::RunResult& spur_run = runs[w][0];
        const core::RunResult& tlb_run = runs[w][1];
        t.AddRow({ToString(workloads[w]), "SPUR (virtual cache)",
                  Table::Num(spur_run.timing.Seconds(sim::TimeBucket::kXlate),
                             2),
                  Table::Num(BitEvents(spur_run, true)),
                  Table::Num(BitFaultSeconds(spur_run), 2),
                  Table::Num(spur_run.page_ins),
                  Table::Num(spur_run.elapsed_seconds, 2)});
        t.AddRow({"", "TLB + physical cache",
                  Table::Num(tlb_run.timing.Seconds(sim::TimeBucket::kXlate),
                             2),
                  Table::Num(BitEvents(tlb_run, false)), Table::Num(0.0, 2),
                  Table::Num(tlb_run.page_ins),
                  Table::Num(tlb_run.elapsed_seconds, 2)});
        const double tlb_elapsed = tlb_run.elapsed_seconds;
        t.AddRow({"", "SPUR advantage", "", "", "", "",
                  Table::Num(100.0 *
                                 (tlb_elapsed - spur_run.elapsed_seconds) /
                                 (tlb_elapsed > 0 ? tlb_elapsed : 1),
                             1) +
                      "%"});
        t.AddSeparator();
        for (size_t m = 0; m < 2; ++m) {
            const core::RunResult& r = runs[w][m];
            stats::RunRecord record;
            record.workload = ToString(workloads[w]);
            // The dirty-policy slot doubles as the machine label here:
            // the TLB baseline has no SPUR-style dirty policy at all.
            record.dirty_policy = m == 0 ? "SPUR" : "TLB";
            record.memory_mb = mem;
            record.seed = seed;
            record.refs_issued = r.refs_issued;
            record.page_ins = r.page_ins;
            record.elapsed_seconds = r.elapsed_seconds;
            record.AddMetric("xlate_seconds",
                             r.timing.Seconds(sim::TimeBucket::kXlate));
            record.AddMetric("bit_events",
                             static_cast<double>(BitEvents(r, m == 0)));
            record.AddMetric("bit_fault_seconds",
                             m == 0 ? BitFaultSeconds(r) : 0.0);
            session.Record(std::move(record));
        }
    }
    t.Print(stdout);
    std::printf(
        "\nThe TLB machine spends translation time on every reference;\n"
        "the SPUR machine only on misses, buying back far more than its\n"
        "bit-maintenance faults cost — the trade the paper's whole\n"
        "investigation rests on.\n");
    return session.Finish();
}
