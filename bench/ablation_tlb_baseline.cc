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
 * Flags: --refs=M (millions, default 6), --mem=MB (default 8), --seed=S,
 *        plus the standard session flags --jobs=N, --json=FILE
 *        (src/runner/session.h)
 */
#include <cstdio>

#include "src/common/args.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/system.h"
#include "src/core/tlb_system.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/workload/driver.h"
#include "src/workload/workloads.h"

namespace {

using namespace spur;

/** One machine run: either SPUR or the TLB baseline on one workload. */
struct MachineRun {
    double xlate_seconds = 0;
    uint64_t bit_events = 0;
    double bit_fault_seconds = 0;
    uint64_t page_ins = 0;
    double elapsed_seconds = 0;
};

MachineRun
RunSpur(workload::WorkloadSpec (*make_spec)(), uint32_t mem, uint64_t refs,
        uint64_t seed)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(mem);
    config.page_in_us = core::kScaledPageInUs;
    core::SpurSystem machine(config, policy::DirtyPolicyKind::kSpur,
                             policy::RefPolicyKind::kMiss);
    workload::Driver driver(machine, make_spec(), refs, seed);
    driver.Run();
    const auto& ev = machine.events();
    MachineRun r;
    r.xlate_seconds = machine.timing().Seconds(sim::TimeBucket::kXlate);
    r.bit_events = ev.Get(sim::Event::kDirtyFault) +
                   ev.Get(sim::Event::kDirtyBitMiss) +
                   ev.Get(sim::Event::kRefFault) +
                   ev.Get(sim::Event::kRefClear);
    r.bit_fault_seconds = static_cast<double>((ev.Get(sim::Event::kDirtyFault) +
                                               ev.Get(sim::Event::kRefFault)) *
                                              config.t_fault) *
                          config.cpu_cycle_ns * 1e-9;
    r.page_ins = ev.Get(sim::Event::kPageIn);
    r.elapsed_seconds = machine.timing().ElapsedSeconds();
    return r;
}

MachineRun
RunTlb(workload::WorkloadSpec (*make_spec)(), uint32_t mem, uint64_t refs,
       uint64_t seed)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(mem);
    config.page_in_us = core::kScaledPageInUs;
    core::TlbSystem machine(config);
    workload::Driver driver(machine, make_spec(), refs, seed);
    driver.Run();
    const auto& ev = machine.events();
    MachineRun r;
    r.xlate_seconds = machine.timing().Seconds(sim::TimeBucket::kXlate);
    r.bit_events = ev.Get(sim::Event::kRefClear);
    r.page_ins = ev.Get(sim::Event::kPageIn);
    r.elapsed_seconds = machine.timing().ElapsedSeconds();
    return r;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args(argc, argv);
    const uint64_t refs =
        static_cast<uint64_t>(args.GetInt("refs", 6)) * 1'000'000ull;
    const auto mem = static_cast<uint32_t>(args.GetInt("mem", 8));
    const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 13));
    runner::BenchSession session("ablation_tlb_baseline", args);

    Table t("Virtual-address cache (SPUR) vs. TLB + physical cache, "
            "identical workloads at " + std::to_string(mem) + " MB");
    t.SetHeader({"workload", "machine", "xlate (s)", "bit events",
                 "bit-fault (s)", "page-ins", "elapsed (s)"});

    // 2 workloads x 2 machines, each with a private system: the four
    // cells run concurrently and the table is assembled afterwards.
    workload::WorkloadSpec (*const specs[])() = {&workload::MakeSlc,
                                                 &workload::MakeWorkload1};
    MachineRun runs[2][2];  // [workload][0=SPUR, 1=TLB]
    runner::ParallelFor(4, session.jobs(), [&](size_t i) {
        const size_t w = i / 2;
        if (i % 2 == 0) {
            runs[w][0] = RunSpur(specs[w], mem, refs, seed);
        } else {
            runs[w][1] = RunTlb(specs[w], mem, refs, seed);
        }
    });

    for (size_t w = 0; w < 2; ++w) {
        const workload::WorkloadSpec probe = specs[w]();
        const MachineRun& spur_run = runs[w][0];
        const MachineRun& tlb_run = runs[w][1];
        t.AddRow({probe.name, "SPUR (virtual cache)",
                  Table::Num(spur_run.xlate_seconds, 2),
                  Table::Num(spur_run.bit_events),
                  Table::Num(spur_run.bit_fault_seconds, 2),
                  Table::Num(spur_run.page_ins),
                  Table::Num(spur_run.elapsed_seconds, 2)});
        t.AddRow({"", "TLB + physical cache",
                  Table::Num(tlb_run.xlate_seconds, 2),
                  Table::Num(tlb_run.bit_events), Table::Num(0.0, 2),
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
            const MachineRun& r = runs[w][m];
            stats::RunRecord record;
            record.workload = probe.name;
            // The dirty-policy slot doubles as the machine label here:
            // the TLB baseline has no SPUR-style dirty policy at all.
            record.dirty_policy = m == 0 ? "SPUR" : "TLB";
            record.memory_mb = mem;
            record.seed = seed;
            record.refs_issued = refs;
            record.page_ins = r.page_ins;
            record.elapsed_seconds = r.elapsed_seconds;
            record.AddMetric("xlate_seconds", r.xlate_seconds);
            record.AddMetric("bit_events",
                             static_cast<double>(r.bit_events));
            record.AddMetric("bit_fault_seconds", r.bit_fault_seconds);
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
