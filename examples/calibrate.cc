/**
 * @file
 * Calibration report: runs a workload at one memory size and prints every
 * ratio the paper's tables constrain, next to the target band.  Used
 * while tuning the synthetic workload profiles; kept as an example of the
 * low-level inspection API.
 *
 * Usage: example_calibrate [--workload=NAME (WORKLOAD1)] [--memory-mb=N
 *        (8)] [--refs=M] [--seed=S (1)] plus the session flags
 *        (src/runner/session.h); NAME is a table name, e.g. SLC
 */
#include <cstdio>

#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/overhead_model.h"
#include "src/runner/session.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session(
        "example_calibrate", argc, argv,
        {runner::WorkloadFlag(), runner::kMemoryMbFlag});

    core::RunConfig run;
    run.workload = session.Workload(core::WorkloadId::kWorkload1);
    run.memory_mb = session.MemoryMb(8);
    run.refs = session.Refs(0);
    run.seed = session.Seed(1);

    const core::RunResult r = core::RunOnce(run);
    const core::EventFrequencies& f = r.frequencies;
    const sim::EventCounts& ev = r.events;

    const double miss_rate = static_cast<double>(ev.TotalMisses()) /
                             static_cast<double>(ev.TotalRefs());
    const double whit_wmiss =
        static_cast<double>(f.n_w_hit) /
        static_cast<double>(f.n_w_miss ? f.n_w_miss : 1);
    const double zfod_frac =
        static_cast<double>(f.n_zfod) /
        static_cast<double>(f.n_ds ? f.n_ds : 1);
    const double excess_incl =
        static_cast<double>(f.n_ef) /
        static_cast<double>(f.n_ds ? f.n_ds : 1);
    const double excess_excl = core::OverheadModel::MeasuredExcessRatio(f);

    Table t(std::string("Calibration: ") + ToString(run.workload) + " @ " +
            std::to_string(run.memory_mb) + " MB, " +
            std::to_string(r.refs_issued) + " refs");
    t.SetHeader({"quantity", "value", "paper target"});
    t.AddRow({"miss rate", Table::Pct(miss_rate, 1), "~3-8%"});
    t.AddRow({"N_ds", Table::Num(f.n_ds), "SLC 1.7-2.4k, W1 7.5-10k"});
    t.AddRow({"N_zfod", Table::Num(f.n_zfod),
              "SLC ~905, W1 ~5.2k (constant-ish)"});
    t.AddRow({"N_ef = N_dm", Table::Num(f.n_ef), "see ratios"});
    t.AddRow({"N_w-hit (k)", Table::Num(f.n_w_hit / 1000.0, 1),
              "SLC 0.6-1.3M, W1 4-6M"});
    t.AddRow({"N_w-miss (k)", Table::Num(f.n_w_miss / 1000.0, 1),
              "SLC 3.7-7.4M, W1 17-34M"});
    t.AddRow({"N_w-hit / N_w-miss", Table::Num(whit_wmiss, 3),
              "0.16 - 0.24"});
    t.AddRow({"N_zfod / N_ds", Table::Num(zfod_frac, 2),
              "SLC ~0.39-0.55, W1 ~0.54-0.69"});
    t.AddRow({"excess ratio (incl zfod)", Table::Pct(excess_incl, 1),
              "<= 16%"});
    t.AddRow({"excess ratio (excl zfod)", Table::Pct(excess_excl, 1),
              "15% - 34%"});
    t.AddRow({"geometric model prediction",
              Table::Pct(core::OverheadModel::PredictedExcessRatio(f), 1),
              "< 20%-ish"});
    t.AddRow({"page-ins", Table::Num(r.page_ins),
              "SLC 1-4.6k, W1 1.8-12k (by mem)"});
    t.AddRow({"page-outs", Table::Num(r.page_outs), "order of page-ins"});
    t.AddRow({"ref faults", Table::Num(ev.Get(sim::Event::kRefFault)), "-"});
    t.AddRow({"elapsed (s)", Table::Num(r.elapsed_seconds, 1),
              "SLC 341-948, W1 2535-3016 (scaled)"});
    t.Print(stdout);

    session.Record(run, /*rep=*/0, r);
    return session.Finish();
}
