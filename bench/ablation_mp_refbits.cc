/**
 * @file
 * Quantifies the Section 4.1 claim that true reference bits are
 * "especially [expensive] in a multiprocessor, which must flush the page
 * from all the caches": runs a shared-memory parallel workload on 1..8
 * processors under MISS and REF and reports how the reference-bit
 * maintenance cost (flush work plus induced refetch misses) scales.
 *
 * Flags: the session flags (src/runner/session.h): --refs=M (millions
 *        per CPU count; default 3), --seed=S (default 21), --jobs=N,
 *        --json=FILE
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/mp_system.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/workload/process.h"

namespace {

using namespace spur;

/** Runs one espresso-like worker per CPU, all sharing one result
 *  segment, and finishes the machine. */
core::RunResult
Run(unsigned cpus, policy::RefPolicyKind ref, uint64_t refs, uint64_t seed)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    config.page_in_us = core::kScaledPageInUs;
    core::MpSpurSystem system(config, cpus, policy::DirtyPolicyKind::kSpur,
                              ref);
    core::Kernel& kernel = system.kernel();
    const uint64_t page = config.page_bytes;

    // One worker process per CPU: a private heap, plus segment 3 shared
    // with worker 0 (the jointly updated result structures).  Each CPU's
    // reference stream is a simple Zipf mix over the two, read-mostly.
    std::vector<Pid> worker_pids(cpus);
    for (unsigned cpu = 0; cpu < cpus; ++cpu) {
        worker_pids[cpu] = kernel.CreateProcess();
        kernel.MapRegion(worker_pids[cpu], workload::kHeapBase, 420 * page,
                         vm::PageKind::kHeap);
        if (cpu == 0) {
            kernel.MapRegion(worker_pids[0], workload::kStackBase,
                             96 * page, vm::PageKind::kHeap);
        } else {
            // Segment 3 shared with worker 0: one global address.
            kernel.ShareSegment(worker_pids[cpu], 3, worker_pids[0], 3);
        }
    }

    // A slow cold scan keeps the machine under constant memory pressure
    // regardless of the worker count, so the page daemon clears
    // reference bits at a comparable rate in every configuration.
    const uint64_t filler_pages = config.NumFrames() + 256;
    kernel.MapRegion(worker_pids[0], workload::kDataBase,
                     filler_pages * page, vm::PageKind::kHeap);
    uint64_t filler_pos = 0;

    Rng rng(seed);
    const uint64_t per_cpu = refs / cpus;
    for (uint64_t i = 0; i < per_cpu; ++i) {
        if (i % 24 == 0) {
            system.Access(0, MemRef{worker_pids[0],
                                    static_cast<ProcessAddr>(
                                        workload::kDataBase +
                                        (filler_pos++ % filler_pages) *
                                            page),
                                    AccessType::kRead});
        }
        for (unsigned cpu = 0; cpu < cpus; ++cpu) {
            const bool shared = rng.Chance(0.25);
            const ProcessAddr base =
                shared ? workload::kStackBase : workload::kHeapBase;
            const uint32_t pages = shared ? 96 : 180;
            const ProcessAddr addr =
                base + static_cast<ProcessAddr>(
                           rng.NextZipf(pages, 0.85) * page +
                           (rng.NextBelow(128) * 32));
            const AccessType type =
                rng.Chance(0.10) ? AccessType::kWrite : AccessType::kRead;
            system.Access(cpu, MemRef{worker_pids[cpu], addr, type});
        }
    }

    // The workers' references plus the cold scan's one per 24 rounds.
    return core::FinishRun(kernel, per_cpu * cpus + (per_cpu + 23) / 24);
}

}  // namespace

int
main(int argc, char** argv)
{
    runner::BenchSession session("ablation_mp_refbits", argc, argv);
    const uint64_t refs = session.Refs(3);
    const uint64_t seed = session.Seed(21);

    // Each (cpus, policy) combination builds its own MpSpurSystem, so
    // the grid runs concurrently on the session's job count.
    struct Combo {
        unsigned cpus;
        policy::RefPolicyKind ref;
    };
    std::vector<Combo> combos;
    for (const unsigned cpus : {1u, 2u, 4u, 8u}) {
        for (const policy::RefPolicyKind ref :
             {policy::RefPolicyKind::kMiss, policy::RefPolicyKind::kRef}) {
            combos.push_back(Combo{cpus, ref});
        }
    }
    std::vector<core::RunResult> runs(combos.size());
    runner::ParallelFor(combos.size(), session.jobs(), [&](size_t i) {
        runs[i] = Run(combos[i].cpus, combos[i].ref, refs, seed);
    });

    Table t("Ablation: reference-bit maintenance on a multiprocessor "
            "(shared-memory workers, 8 MB)");
    t.SetHeader({"CPUs", "policy", "ref clears", "flush Mcycles",
                 "bus transfers", "page-ins", "elapsed (s)"});
    for (size_t i = 0; i < combos.size(); ++i) {
        const core::RunResult& r = runs[i];
        const uint64_t ref_clears = r.events.Get(sim::Event::kRefClear);
        const uint64_t flush_cycles = r.timing.Get(sim::TimeBucket::kFlush);
        const uint64_t bus_transfers =
            r.events.Get(sim::Event::kBusCacheToCache);
        t.AddRow({std::to_string(combos[i].cpus), ToString(combos[i].ref),
                  Table::Num(ref_clears),
                  Table::Num(static_cast<double>(flush_cycles) / 1e6, 2),
                  Table::Num(bus_transfers), Table::Num(r.page_ins),
                  Table::Num(r.elapsed_seconds, 2)});
        if (i % 2 == 1) {
            t.AddSeparator();
        }
        stats::RunRecord record;
        // The CPU count is part of the cell's identity (workload,
        // policies, memory, rep, seed), so it goes in the workload label,
        // not only the metrics.
        record.workload = "MP" + std::to_string(combos[i].cpus);
        record.ref_policy = ToString(combos[i].ref);
        record.memory_mb = 8;
        record.seed = seed;
        record.page_ins = r.page_ins;
        record.elapsed_seconds = r.elapsed_seconds;
        record.AddMetric("cpus", static_cast<double>(combos[i].cpus));
        record.AddMetric("ref_clears", static_cast<double>(ref_clears));
        record.AddMetric("flush_cycles", static_cast<double>(flush_cycles));
        record.AddMetric("bus_transfers", static_cast<double>(bus_transfers));
        session.Record(std::move(record));
    }
    t.Print(stdout);
    std::printf(
        "\nUnder REF every reference-bit clear flushes the page from all\n"
        "the caches: the flush work grows with the processor count while\n"
        "MISS's stays flat — the paper's Section 4.1 argument for why\n"
        "true reference bits do not belong on a multiprocessor.\n");
    return session.Finish();
}
