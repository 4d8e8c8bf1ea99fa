/**
 * @file
 * Sweeps the full policy cross-product (5 dirty x 3 reference) over a
 * memory-size range on one workload and prints a compact grid — the
 * "what if" explorer for the paper's entire design space.
 *
 * Usage: example_policy_explorer [--workload=NAME (WORKLOAD1)] [--refs=M
 *        (6)] [--memory-mb=N (5, 8)] plus the session flags
 *        (src/runner/session.h); NAME is a table name, e.g. SLC
 */
#include <cstdio>
#include <vector>

#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/runner/session.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session(
        "example_policy_explorer", argc, argv,
        {runner::WorkloadFlag(), runner::kMemoryMbFlag});
    const core::WorkloadId workload =
        session.Workload(core::WorkloadId::kWorkload1);
    const uint64_t refs = session.Refs(6);
    std::vector<uint32_t> memories = {5, 8};
    if (session.args().Has("memory-mb")) {
        memories = {session.MemoryMb(0)};
    }

    const policy::DirtyPolicyKind dirty_kinds[] = {
        policy::DirtyPolicyKind::kMin, policy::DirtyPolicyKind::kFault,
        policy::DirtyPolicyKind::kFlush, policy::DirtyPolicyKind::kSpur,
        policy::DirtyPolicyKind::kWrite};
    const policy::RefPolicyKind ref_kinds[] = {
        policy::RefPolicyKind::kMiss, policy::RefPolicyKind::kRef,
        policy::RefPolicyKind::kNoRef};

    // The whole cross-product runs through the pool at once; the grids
    // below index into the flat result list in construction order.
    std::vector<core::RunConfig> configs;
    for (const uint32_t mb : memories) {
        for (const auto dirty : dirty_kinds) {
            for (const auto ref : ref_kinds) {
                core::RunConfig config;
                config.workload = workload;
                config.memory_mb = mb;
                config.dirty = dirty;
                config.ref = ref;
                config.refs = refs;
                configs.push_back(config);
            }
        }
    }
    const auto results = session.RunAll(configs);

    size_t i = 0;
    for (const uint32_t mb : memories) {
        Table t(std::string(ToString(workload)) + " @ " +
                std::to_string(mb) +
                " MB: elapsed seconds (page-ins) per policy pair");
        t.SetHeader({"dirty \\ ref", "MISS", "REF", "NOREF"});
        for (const auto dirty : dirty_kinds) {
            std::vector<std::string> row = {ToString(dirty)};
            for (size_t rf = 0; rf < 3; ++rf, ++i) {
                const core::RunResult& r = results[i];
                row.push_back(Table::Num(r.elapsed_seconds, 1) + " (" +
                              Table::Num(r.page_ins) + ")");
            }
            t.AddRow(row);
        }
        t.Print(stdout);
        std::printf("\n");
    }
    std::printf("The dirty-bit choice barely moves the totals (its\n"
                "overhead is sub-1%% of elapsed time); the reference-bit\n"
                "choice dominates through its effect on page-ins.\n");
    return session.Finish();
}
