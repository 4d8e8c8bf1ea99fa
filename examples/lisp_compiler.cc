/**
 * @file
 * The paper's second workload: the SPUR Common Lisp compiler (SLC),
 * compared across the three reference-bit policies over a sweep of
 * memory sizes — a miniature of Table 4.1 with a configurable sweep.
 *
 * Usage: example_lisp_compiler [--refs=M (8)] [--memory-mb=N (5, 6, 8)]
 *        plus the session flags (src/runner/session.h)
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
    runner::BenchSession session("example_lisp_compiler", argc, argv,
                                 {runner::kMemoryMbFlag});
    const uint64_t refs = session.Refs(8);
    std::vector<uint32_t> memories = {5, 6, 8};
    if (session.args().Has("memory-mb")) {
        memories = {session.MemoryMb(0)};
    }

    std::vector<core::RunConfig> configs;
    for (const uint32_t mb : memories) {
        for (const policy::RefPolicyKind ref :
             {policy::RefPolicyKind::kMiss, policy::RefPolicyKind::kRef,
              policy::RefPolicyKind::kNoRef}) {
            core::RunConfig config;
            config.workload = core::WorkloadId::kSlc;
            config.memory_mb = mb;
            config.ref = ref;
            config.refs = refs;
            configs.push_back(config);
        }
    }
    const auto results = session.RunAll(configs);

    Table t("SPUR Lisp compiler (SLC): reference-bit policies");
    t.SetHeader({"memory (MB)", "policy", "page-ins", "ref faults",
                 "ref clears", "daemon sweeps", "elapsed (s)"});
    for (size_t i = 0; i < configs.size(); ++i) {
        const core::RunResult& r = results[i];
        t.AddRow({std::to_string(configs[i].memory_mb),
                  ToString(configs[i].ref), Table::Num(r.page_ins),
                  Table::Num(r.events.Get(sim::Event::kRefFault)),
                  Table::Num(r.events.Get(sim::Event::kRefClear)),
                  Table::Num(r.events.Get(sim::Event::kDaemonSweep)),
                  Table::Num(r.elapsed_seconds, 2)});
        if (i % 3 == 2) {
            t.AddSeparator();
        }
    }
    t.Print(stdout);
    std::printf(
        "\nNOREF never takes reference faults or clears, but its page\n"
        "daemon reclaims pages in sweep order, inflating page-ins when\n"
        "memory is tight.  REF pays a page flush per clear.\n");
    return session.Finish();
}
