/**
 * @file
 * Ablation over the policy variants the paper describes but did not
 * build:
 *
 *  - SPUR-PROT: the Section 3.1 "generalized" SPUR scheme on the
 *    protection field.  Must be cycle-identical to SPUR (saving one tag
 *    bit per cache line and 7% of the controller PLA).
 *  - WRITE-HW: the real Sun-3 mechanism, where hardware updates the
 *    dirty bit itself — no faults at all.  Even so, the per-block check
 *    keeps it far more expensive than FAULT, strengthening the paper's
 *    "no special hardware is necessary" conclusion.
 *
 * Mechanistic runs (each policy actually executes); w-hit-driven terms
 * are also reported at prototype scale via the analytic model.
 *
 * Flags: --refs=M (millions, default 6), --scenarios (append the
 *        DESIGN.md §19 scenario-library workloads — ctx-switch,
 *        flush-storm, server-churn, gc-sweep — to the analytic table),
 *        plus the standard session flags --jobs=N, --json=FILE,
 *        --record-trace=FILE, --replay-trace=FILE
 *        (src/runner/session.h)
 */
#include <cstdio>
#include <vector>

#include "src/common/args.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/overhead_model.h"
#include "src/core/system.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/workload/driver.h"
#include "src/workload/workloads.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    const Args args(argc, argv);
    const uint64_t refs =
        static_cast<uint64_t>(args.GetInt("refs", 6)) * 1'000'000ull;
    runner::BenchSession session("ablation_policy_variants", args);

    // Mechanistic comparison: SPUR vs SPUR-PROT must match exactly.
    // Each policy drives a private SpurSystem, so the pair runs
    // concurrently; rows are emitted in fixed order afterwards.
    struct MechRun {
        uint64_t n_ds = 0;
        uint64_t refreshes = 0;
        uint64_t fault_cycles = 0;
        uint64_t aux_cycles = 0;
        uint64_t misses = 0;
    };
    const policy::DirtyPolicyKind kinds[] = {
        policy::DirtyPolicyKind::kSpur,
        policy::DirtyPolicyKind::kSpurProt};
    MechRun mech[2];
    runner::ParallelFor(2, session.jobs(), [&](size_t i) {
        sim::MachineConfig config = sim::MachineConfig::Prototype(6);
        config.page_in_us = core::kScaledPageInUs;
        core::SpurSystem system(config, kinds[i],
                                policy::RefPolicyKind::kMiss);
        workload::Driver driver(system, workload::MakeWorkload1(), refs, 3);
        driver.Run();
        const auto& ev = system.events();
        mech[i] = MechRun{ev.Get(sim::Event::kDirtyFault),
                          ev.Get(sim::Event::kDirtyBitMiss),
                          system.timing().Get(sim::TimeBucket::kFault),
                          system.timing().Get(sim::TimeBucket::kDirtyAux),
                          ev.TotalMisses()};
    });

    Table eq("SPUR vs SPUR-PROT (mechanistic, WORKLOAD1 @ 6 MB): the "
             "generalized scheme is identical");
    eq.SetHeader({"policy", "N_ds", "refresh events", "fault cycles",
                  "aux cycles", "misses"});
    for (size_t i = 0; i < 2; ++i) {
        eq.AddRow({ToString(kinds[i]), Table::Num(mech[i].n_ds),
                   Table::Num(mech[i].refreshes),
                   Table::Num(mech[i].fault_cycles),
                   Table::Num(mech[i].aux_cycles),
                   Table::Num(mech[i].misses)});
        stats::RunRecord record;
        record.workload = "WORKLOAD1";
        record.dirty_policy = ToString(kinds[i]);
        record.memory_mb = 6;
        record.seed = 3;
        record.refs_issued = refs;
        record.AddMetric("n_ds", static_cast<double>(mech[i].n_ds));
        record.AddMetric("refresh_events",
                         static_cast<double>(mech[i].refreshes));
        record.AddMetric("fault_cycles",
                         static_cast<double>(mech[i].fault_cycles));
        record.AddMetric("aux_cycles",
                         static_cast<double>(mech[i].aux_cycles));
        record.AddMetric("misses", static_cast<double>(mech[i].misses));
        session.Record(std::move(record));
    }
    eq.Print(stdout);
    std::printf("\n");

    // Analytic comparison at prototype scale: WRITE-HW vs the rest.
    Table hw("WRITE-HW vs FAULT/SPUR (analytic, prototype-equivalent "
             "scale, zero-fills excluded; millions of cycles)");
    hw.SetHeader({"Workload", "Memory (MB)", "FAULT", "SPUR", "WRITE",
                  "WRITE-HW"});
    const core::OverheadModel model(sim::MachineConfig::Prototype(8));
    std::vector<core::WorkloadId> workloads = {core::WorkloadId::kSlc,
                                               core::WorkloadId::kWorkload1};
    if (args.Has("scenarios")) {
        // The scenario library (DESIGN.md §19), marked by its workload
        // names in the rows below.
        for (const core::WorkloadId id : core::kScenarioLibrary) {
            workloads.push_back(id);
        }
    }
    std::vector<core::RunConfig> configs;
    for (const core::WorkloadId workload : workloads) {
        for (const uint32_t mb : {5u, 8u}) {
            core::RunConfig config;
            config.workload = workload;
            config.memory_mb = mb;
            config.refs = refs;
            configs.push_back(config);
        }
    }
    const auto results = session.RunAll(configs);
    for (size_t i = 0; i < configs.size(); ++i) {
        core::EventFrequencies f = results[i].frequencies;
        const double scale = core::RefCompression(configs[i].workload);
        f.n_w_hit =
            static_cast<uint64_t>(static_cast<double>(f.n_w_hit) * scale);
        f.n_w_miss =
            static_cast<uint64_t>(static_cast<double>(f.n_w_miss) * scale);
        hw.AddRow(
            {ToString(configs[i].workload),
             std::to_string(configs[i].memory_mb),
             Table::Num(
                 model.Overhead(policy::DirtyPolicyKind::kFault, f) / 1e6,
                 2),
             Table::Num(
                 model.Overhead(policy::DirtyPolicyKind::kSpur, f) / 1e6,
                 2),
             Table::Num(
                 model.Overhead(policy::DirtyPolicyKind::kWrite, f) / 1e6,
                 2),
             Table::Num(
                 model.Overhead(policy::DirtyPolicyKind::kWriteHw, f) / 1e6,
                 2)});
    }
    hw.Print(stdout);
    std::printf(
        "\nEliminating the faults (WRITE-HW) removes the N_ds*t_ds term,\n"
        "but the per-block check volume still dwarfs FAULT's total - the\n"
        "check rate, not the fault cost, is what sinks the Sun-3 scheme.\n");
    return session.Finish();
}
