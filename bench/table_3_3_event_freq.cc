/**
 * @file
 * Reproduces Table 3.3 — "Event Frequencies" — by running both synthetic
 * workloads at 5, 6 and 8 MB on the machine configured with the policies
 * SPUR actually implemented (SPUR dirty-bit mechanism, MISS reference
 * bits) and reading the cache controller's counters, exactly as the
 * prototype measurements were taken.
 *
 * Flags: --reps=N (default 1), --refs=M (override run length, millions),
 *        --csv, --seed=S, plus the standard session flags --jobs=N,
 *        --json=FILE, --shard=K/N, --stream=FILE, --resume=FILE
 *        (src/runner/session.h)
 */
#include <cstdio>
#include <vector>

#include "src/common/args.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/runner/session.h"
#include "src/stats/summary.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    const Args args(argc, argv);
    const auto reps = static_cast<uint32_t>(args.GetInt("reps", 1));
    const uint64_t refs =
        static_cast<uint64_t>(args.GetInt("refs", 0)) * 1'000'000ull;
    const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
    runner::BenchSession session("table_3_3_event_freq", args);

    std::vector<core::RunConfig> configs;
    for (const core::WorkloadId workload :
         {core::WorkloadId::kSlc, core::WorkloadId::kWorkload1}) {
        for (const uint32_t mb : {5u, 6u, 8u}) {
            core::RunConfig config;
            config.workload = workload;
            config.memory_mb = mb;
            config.dirty = policy::DirtyPolicyKind::kSpur;
            config.ref = policy::RefPolicyKind::kMiss;
            config.refs = refs;
            config.seed = seed;
            configs.push_back(config);
        }
    }

    const auto results = session.RunMatrix(configs, reps);

    Table t("Table 3.3: Event Frequencies  (N_w-hit / N_w-miss in "
            "prototype-equivalent millions via the documented "
            "reference-compression factor; elapsed in scaled seconds)");
    t.SetHeader({"Workload", "Size (MB)", "N_ds", "N_zfod", "N_ef = N_dm",
                 "N_w-hit (M)", "N_w-miss (M)", "t_elapsed (s)"});
    const char* last_workload = nullptr;
    for (size_t i = 0; i < configs.size(); ++i) {
        using core::RunResult;
        const auto ds = stats::Summary::Over(
            results[i], [](const RunResult& r) { return r.frequencies.n_ds; });
        const auto zfod = stats::Summary::Over(
            results[i],
            [](const RunResult& r) { return r.frequencies.n_zfod; });
        const auto ef = stats::Summary::Over(
            results[i], [](const RunResult& r) { return r.frequencies.n_ef; });
        const auto whit = stats::Summary::Over(
            results[i],
            [](const RunResult& r) { return r.frequencies.n_w_hit; });
        const auto wmiss = stats::Summary::Over(
            results[i],
            [](const RunResult& r) { return r.frequencies.n_w_miss; });
        const auto elapsed = stats::Summary::Over(
            results[i], [](const RunResult& r) { return r.elapsed_seconds; });
        const char* name = ToString(configs[i].workload);
        const double scale = core::RefCompression(configs[i].workload);
        if (last_workload != nullptr && name != last_workload) {
            t.AddSeparator();
        }
        last_workload = name;
        t.AddRow({name, std::to_string(configs[i].memory_mb),
                  Table::Num(static_cast<uint64_t>(ds.Mean())),
                  Table::Num(static_cast<uint64_t>(zfod.Mean())),
                  Table::Num(static_cast<uint64_t>(ef.Mean())),
                  Table::Num(whit.Mean() * scale / 1e6, 2),
                  Table::Num(wmiss.Mean() * scale / 1e6, 2),
                  Table::Num(elapsed.Mean(), 0)});
    }
    if (args.Has("csv")) {
        t.PrintCsv(stdout);
    } else {
        t.Print(stdout);
        std::printf(
            "\nShape checks vs. the paper: excess faults are a small\n"
            "fraction of necessary faults and shrink with memory;\n"
            "N_w-hit : N_w-miss is roughly 1 : 4-6; N_zfod is nearly\n"
            "constant across memory sizes while N_ds falls.\n");
    }
    return session.Finish();
}
