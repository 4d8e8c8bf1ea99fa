/**
 * @file
 * The paper's closing prediction, tested: "the benefits of reference and
 * dirty bits decline as memory size increases, and may eventually
 * degrade rather than improve performance.  We are conducting further
 * studies to evaluate ... larger memory sizes."
 *
 * Sweeps memory from 5 to 16 MB for both workloads under MISS and NOREF
 * and reports where maintaining reference bits stops paying: the NOREF
 * elapsed-time penalty shrinks as paging vanishes while its savings
 * (no ref faults, no clears) stay, so the curves cross.
 *
 * Flags: the session flags (src/runner/session.h): --refs=M (millions),
 *        --reps=N (default 1), --seed=S (default 1), --jobs=N,
 *        --json=FILE and the trace flags
 */
#include <cstdio>
#include <vector>

#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/runner/session.h"
#include "src/stats/summary.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("ablation_memory_scaling", argc, argv);
    const uint64_t refs = session.Refs(0);
    const uint64_t seed = session.Seed(1);

    const core::WorkloadId workloads[] = {core::WorkloadId::kSlc,
                                          core::WorkloadId::kWorkload1};
    const uint32_t memories[] = {5u, 6u, 8u, 10u, 12u, 16u};

    // One config per (workload, memory, policy) cell; MISS and NOREF
    // alternate so configs[2k] / configs[2k+1] form one table row.
    std::vector<core::RunConfig> configs;
    for (const core::WorkloadId workload : workloads) {
        for (const uint32_t mb : memories) {
            for (const policy::RefPolicyKind ref :
                 {policy::RefPolicyKind::kMiss,
                  policy::RefPolicyKind::kNoRef}) {
                core::RunConfig config;
                config.workload = workload;
                config.memory_mb = mb;
                config.ref = ref;
                config.refs = refs;
                config.seed = seed;
                configs.push_back(config);
            }
        }
    }

    const auto results = session.RunMatrix(configs, session.Reps(1));

    Table t("Future work (Section 5): reference bits vs. memory size");
    t.SetHeader({"workload", "memory (MB)", "MISS page-ins",
                 "NOREF page-ins", "MISS elapsed (s)", "NOREF elapsed (s)",
                 "NOREF penalty"});

    for (size_t i = 0; i < configs.size(); i += 2) {
        stats::Summary elapsed[2], page_ins[2];
        for (size_t p = 0; p < 2; ++p) {
            elapsed[p] = stats::Summary::Over(
                results[i + p],
                [](const core::RunResult& r) { return r.elapsed_seconds; });
            page_ins[p] = stats::Summary::Over(
                results[i + p],
                [](const core::RunResult& r) { return r.page_ins; });
        }
        const double penalty =
            100.0 * (elapsed[1].Mean() - elapsed[0].Mean()) /
            (elapsed[0].Mean() > 0 ? elapsed[0].Mean() : 1);
        t.AddRow({ToString(configs[i].workload),
                  std::to_string(configs[i].memory_mb),
                  Table::Num(static_cast<uint64_t>(page_ins[0].Mean())),
                  Table::Num(static_cast<uint64_t>(page_ins[1].Mean())),
                  Table::Num(elapsed[0].Mean(), 2),
                  Table::Num(elapsed[1].Mean(), 2),
                  Table::Num(penalty, 1) + "%"});
        if (configs[i].memory_mb == memories[std::size(memories) - 1]) {
            t.AddSeparator();
        }
    }
    t.Print(stdout);
    std::printf(
        "\nAs memory grows past the workload's footprint the page daemon\n"
        "goes idle, NOREF's extra page-ins vanish, and the cost of\n"
        "maintaining reference bits (ref faults on every post-clear\n"
        "miss, daemon clears) is all that separates the policies — the\n"
        "paper's prediction that the bits eventually become a liability.\n");
    return session.Finish();
}
