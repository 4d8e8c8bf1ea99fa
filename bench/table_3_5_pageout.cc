/**
 * @file
 * Reproduces Table 3.5 — "Page-Out Results from Sprite Development
 * Systems" — with six simulated development machines at 8, 12 and 16 MB
 * of memory and varying load intensity (users self-schedule big jobs
 * onto big-memory machines, so intensity grows with memory).
 *
 * Columns follow the paper: page-ins, potentially modified (writable)
 * pages replaced, how many of those were *not* modified (the page-outs
 * dirty bits saved), and the extra paging I/O that would occur without
 * dirty bits.
 *
 * Flags: --refs=M (millions, per host), --csv, --seed=S, --scenarios
 *        (append a page-out table over the DESIGN.md §19 scenario
 *        library — ctx-switch, flush-storm, server-churn, gc-sweep),
 *        plus the standard session flags --jobs=N, --json=FILE,
 *        --shard=K/N, --stream=FILE, --resume=FILE,
 *        --record-trace=FILE, --replay-trace=FILE
 *        (src/runner/session.h)
 */
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/args.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/runner/session.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    const Args args(argc, argv);
    const uint64_t refs =
        static_cast<uint64_t>(args.GetInt("refs", 0)) * 1'000'000ull;
    const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    runner::BenchSession session("table_3_5_pageout", args);

    struct Host {
        const char* name;
        uint32_t memory_mb;
        double intensity;
        uint32_t hours;  ///< Nominal observation window (for flavour).
    };
    // Modelled on the paper's hosts: mace and sloth are busy 8 MB
    // machines, sage and fenugreek are 12 MB, murder is a loaded 16 MB
    // server.
    const Host hosts[] = {
        {"mace", 8, 1.30, 70},   {"sloth", 8, 1.00, 37},
        {"mace", 8, 1.60, 46},   {"sage", 12, 1.70, 45},
        {"fenugreek", 12, 1.85, 36}, {"murder", 16, 3.00, 119},
    };

    Table t("Table 3.5: Page-Out Results from Simulated Development "
            "Systems");
    t.SetHeader({"Hostname", "Memory", "Window", "Page-Ins",
                 "Potentially Modified", "Not Modified", "% Not Modified",
                 "% Additional Paging I/O"});

    std::vector<core::RunConfig> configs;
    for (const Host& host : hosts) {
        core::RunConfig config;
        config.workload = core::WorkloadId::kDevMachine;
        config.memory_mb = host.memory_mb;
        config.intensity = host.intensity;
        config.refs = refs;
        config.seed = seed + host.hours;  // Distinct, reproducible.
        config.dirty = policy::DirtyPolicyKind::kSpur;
        config.ref = policy::RefPolicyKind::kMiss;
        configs.push_back(config);
    }
    const auto results = session.RunAll(configs);

    for (size_t i = 0; i < std::size(hosts); ++i) {
        const Host& host = hosts[i];
        const core::RunResult& r = results[i];

        const uint64_t modified =
            r.events.Get(sim::Event::kPageoutWritableModified);
        const uint64_t not_modified =
            r.events.Get(sim::Event::kPageoutWritableNotModified);
        const uint64_t potentially = modified + not_modified;
        const uint64_t total_io = r.page_ins + r.page_outs;
        const double pct_not_modified =
            (potentially > 0)
                ? static_cast<double>(not_modified) /
                      static_cast<double>(potentially)
                : 0.0;
        // Without dirty bits every clean writable reclaim becomes a
        // page-out: the additional I/O relative to today's total.
        const double pct_additional =
            (total_io > 0) ? static_cast<double>(not_modified) /
                                 static_cast<double>(total_io)
                           : 0.0;

        t.AddRow({host.name, std::to_string(host.memory_mb) + " MB",
                  std::to_string(host.hours) + " h",
                  Table::Num(r.page_ins), Table::Num(potentially),
                  Table::Num(not_modified), Table::Pct(pct_not_modified),
                  Table::Pct(pct_additional, 1)});
    }

    if (args.Has("csv")) {
        t.PrintCsv(stdout);
    } else {
        t.Print(stdout);
        std::printf(
            "\nShape checks vs. the paper: at 8 MB at least ~80%% of\n"
            "replaced writable pages were actually modified (>=90%% at\n"
            "12+ MB), and dropping dirty bits would add at most a few\n"
            "percent of paging I/O — dirty bits buy very little here.\n");
    }

    // The scenario library (DESIGN.md §19): the same page-out columns
    // over the VAC-stress scripts, on one 8 MB machine each.
    if (args.Has("scenarios")) {
        Table s("Scenario library: page-out results (8 MB, SPUR/MISS)");
        s.SetHeader({"Scenario", "Page-Ins", "Potentially Modified",
                     "Not Modified", "% Not Modified",
                     "% Additional Paging I/O"});
        std::vector<core::RunConfig> scenario_configs;
        for (const core::WorkloadId id : core::kScenarioLibrary) {
            core::RunConfig config;
            config.workload = id;
            config.memory_mb = 8;
            config.refs = refs;
            config.seed = seed;
            config.dirty = policy::DirtyPolicyKind::kSpur;
            config.ref = policy::RefPolicyKind::kMiss;
            scenario_configs.push_back(config);
        }
        const auto scenario_results = session.RunAll(scenario_configs);
        for (size_t i = 0; i < scenario_configs.size(); ++i) {
            const core::RunResult& r = scenario_results[i];
            const uint64_t modified =
                r.events.Get(sim::Event::kPageoutWritableModified);
            const uint64_t not_modified =
                r.events.Get(sim::Event::kPageoutWritableNotModified);
            const uint64_t potentially = modified + not_modified;
            const uint64_t total_io = r.page_ins + r.page_outs;
            const double pct_not_modified =
                (potentially > 0) ? static_cast<double>(not_modified) /
                                        static_cast<double>(potentially)
                                  : 0.0;
            const double pct_additional =
                (total_io > 0) ? static_cast<double>(not_modified) /
                                     static_cast<double>(total_io)
                               : 0.0;
            s.AddRow({ToString(scenario_configs[i].workload),
                      Table::Num(r.page_ins), Table::Num(potentially),
                      Table::Num(not_modified),
                      Table::Pct(pct_not_modified),
                      Table::Pct(pct_additional, 1)});
        }
        if (args.Has("csv")) {
            s.PrintCsv(stdout);
        } else {
            s.Print(stdout);
        }
    }
    return session.Finish();
}
