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
 * Flags: --scenarios (append the DESIGN.md §19 scenario-library
 *        workloads — ctx-switch, flush-storm, server-churn, gc-sweep —
 *        to the analytic table), plus the session flags
 *        (src/runner/session.h): --refs=M (millions, default 6),
 *        --jobs=N, --json=FILE, --record-trace=FILE,
 *        --replay-trace=FILE
 */
#include <cstdio>
#include <vector>

#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/overhead_model.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("ablation_policy_variants", argc, argv,
                                 {{"scenarios"}});
    const uint64_t refs = session.Refs(6);

    // Mechanistic comparison: SPUR vs SPUR-PROT must match exactly.
    // The pair runs as two RunOnce cells; rows are emitted in fixed
    // order afterwards.
    const policy::DirtyPolicyKind kinds[] = {
        policy::DirtyPolicyKind::kSpur,
        policy::DirtyPolicyKind::kSpurProt};
    std::vector<core::RunConfig> pair;
    for (const policy::DirtyPolicyKind kind : kinds) {
        core::RunConfig config;
        config.memory_mb = 6;
        config.dirty = kind;
        config.refs = refs;
        config.seed = 3;
        pair.push_back(config);
    }
    const auto mech = runner::RunAll(pair, session.jobs());

    Table eq("SPUR vs SPUR-PROT (mechanistic, WORKLOAD1 @ 6 MB): the "
             "generalized scheme is identical");
    eq.SetHeader({"policy", "N_ds", "refresh events", "fault cycles",
                  "aux cycles", "misses"});
    for (size_t i = 0; i < 2; ++i) {
        const uint64_t n_ds = mech[i].events.Get(sim::Event::kDirtyFault);
        const uint64_t refreshes =
            mech[i].events.Get(sim::Event::kDirtyBitMiss);
        const uint64_t fault_cycles =
            mech[i].timing.Get(sim::TimeBucket::kFault);
        const uint64_t aux_cycles =
            mech[i].timing.Get(sim::TimeBucket::kDirtyAux);
        const uint64_t misses = mech[i].events.TotalMisses();
        eq.AddRow({ToString(kinds[i]), Table::Num(n_ds),
                   Table::Num(refreshes), Table::Num(fault_cycles),
                   Table::Num(aux_cycles), Table::Num(misses)});
        stats::RunRecord record;
        record.workload = "WORKLOAD1";
        record.dirty_policy = ToString(kinds[i]);
        record.memory_mb = 6;
        record.seed = 3;
        record.refs_issued = mech[i].refs_issued;
        record.AddMetric("n_ds", static_cast<double>(n_ds));
        record.AddMetric("refresh_events", static_cast<double>(refreshes));
        record.AddMetric("fault_cycles", static_cast<double>(fault_cycles));
        record.AddMetric("aux_cycles", static_cast<double>(aux_cycles));
        record.AddMetric("misses", static_cast<double>(misses));
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
    if (session.args().Has("scenarios")) {
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
