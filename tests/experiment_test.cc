/**
 * @file
 * Tests for the experiment framework (RunOnce / RunMatrix) and the
 * summary statistics: reproducibility, randomized-design bookkeeping,
 * and the scaled-machine configuration.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/core/experiment.h"
#include "src/runner/runner.h"
#include "src/stats/summary.h"
#include "src/workload/driver.h"

namespace spur::core {
namespace {

RunConfig
SmallRun()
{
    RunConfig config;
    config.workload = WorkloadId::kSlc;
    config.memory_mb = 8;
    config.refs = 300'000;
    config.seed = 5;
    return config;
}

TEST(ExperimentTest, RunOnceIsDeterministic)
{
    const RunResult a = RunOnce(SmallRun());
    const RunResult b = RunOnce(SmallRun());
    EXPECT_EQ(a.refs_issued, b.refs_issued);
    EXPECT_EQ(a.page_ins, b.page_ins);
    EXPECT_EQ(a.frequencies.n_ds, b.frequencies.n_ds);
    EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

TEST(ExperimentTest, SeedChangesTheRun)
{
    RunConfig other = SmallRun();
    other.seed = 6;
    const RunResult a = RunOnce(SmallRun());
    const RunResult b = RunOnce(other);
    // Different seed, different stream (counts are extremely unlikely to
    // coincide exactly across all fields).
    EXPECT_NE(a.events.TotalMisses(), b.events.TotalMisses());
}

TEST(ExperimentTest, RunOnceFillsDerivedFields)
{
    const RunResult r = RunOnce(SmallRun());
    EXPECT_EQ(r.refs_issued, 300'000u);
    EXPECT_EQ(r.events.TotalRefs(), 300'000u);
    EXPECT_EQ(r.page_ins, r.events.Get(sim::Event::kPageIn));
    EXPECT_GT(r.elapsed_seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.elapsed_seconds, r.timing.ElapsedSeconds());
    EXPECT_DOUBLE_EQ(r.timing.config().page_in_us, kScaledPageInUs);
    double bucket_total = 0;
    for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
        bucket_total += r.timing.Seconds(static_cast<sim::TimeBucket>(i));
    }
    EXPECT_NEAR(bucket_total, r.elapsed_seconds, 1e-9);
}

TEST(ExperimentTest, FinishRunOnAHandDrivenMachineEqualsRunOnce)
{
    // The cell RunOnce builds, built and driven by hand: FinishRun must
    // read it into the same result, every counter and cycle bucket.
    const RunConfig config = SmallRun();
    sim::MachineConfig machine =
        sim::MachineConfig::Prototype(config.memory_mb);
    machine.page_in_us = kScaledPageInUs;
    SpurSystem system(machine, config.dirty, config.ref);
    workload::WorkloadSpec spec = SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    workload::Driver driver(system, std::move(spec), config.refs,
                            config.seed, slice_refs);
    driver.Run();
    const RunResult hand = FinishRun(system.kernel(), driver.refs_issued());
    const RunResult cell = RunOnce(config);

    EXPECT_EQ(hand.refs_issued, cell.refs_issued);
    EXPECT_EQ(hand.page_ins, cell.page_ins);
    EXPECT_EQ(hand.page_outs, cell.page_outs);
    for (size_t i = 0; i < sim::kNumEvents; ++i) {
        const auto event = static_cast<sim::Event>(i);
        EXPECT_EQ(hand.events.Get(event), cell.events.Get(event))
            << sim::ToString(event);
    }
    EXPECT_EQ(hand.frequencies.n_ds, cell.frequencies.n_ds);
    EXPECT_EQ(hand.frequencies.n_zfod, cell.frequencies.n_zfod);
    EXPECT_EQ(hand.frequencies.n_ef, cell.frequencies.n_ef);
    EXPECT_EQ(hand.frequencies.n_w_hit, cell.frequencies.n_w_hit);
    EXPECT_EQ(hand.frequencies.n_w_miss, cell.frequencies.n_w_miss);
    for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
        const auto bucket = static_cast<sim::TimeBucket>(i);
        EXPECT_EQ(hand.timing.Get(bucket), cell.timing.Get(bucket))
            << sim::ToString(bucket);
    }
    EXPECT_DOUBLE_EQ(hand.elapsed_seconds, cell.elapsed_seconds);
    EXPECT_GT(cell.timing.Get(sim::TimeBucket::kPagingIo), 0u);
}

TEST(ExperimentTest, RunMatrixGroupsByConfig)
{
    std::vector<RunConfig> configs(2, SmallRun());
    configs[1].ref = policy::RefPolicyKind::kNoRef;
    const auto results =
        runner::RunMatrix(configs, /*reps=*/2, /*jobs=*/0);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(results[0].size(), 2u);
    ASSERT_EQ(results[1].size(), 2u);
    for (const auto& group : results) {
        for (const RunResult& r : group) {
            EXPECT_EQ(r.refs_issued, 300'000u);
        }
    }
}

TEST(ExperimentTest, RepetitionsUseDistinctSeeds)
{
    const auto results = runner::RunMatrix({SmallRun()}, /*reps=*/2);
    EXPECT_NE(results[0][0].events.TotalMisses(),
              results[0][1].events.TotalMisses());
}

TEST(ExperimentTest, RefCompressionFactors)
{
    // Documented derivation: paper elapsed x 1.5 MIPS / simulated refs.
    EXPECT_DOUBLE_EQ(RefCompression(WorkloadId::kWorkload1), 160.0);
    EXPECT_DOUBLE_EQ(RefCompression(WorkloadId::kSlc), 35.0);
    EXPECT_GT(RefCompression(WorkloadId::kDevMachine), 1.0);
}

TEST(ExperimentTest, WorkloadNames)
{
    EXPECT_STREQ(ToString(WorkloadId::kWorkload1), "WORKLOAD1");
    EXPECT_STREQ(ToString(WorkloadId::kSlc), "SLC");
    EXPECT_STREQ(ToString(WorkloadId::kDevMachine), "dev-machine");
}

}  // namespace
}  // namespace spur::core

namespace spur::stats {
namespace {

TEST(SummaryTest, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.Count(), 0u);
    EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
    EXPECT_DOUBLE_EQ(s.Ci95(), 0.0);
}

TEST(SummaryTest, MeanAndDeviation)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.Add(v);
    }
    EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
    EXPECT_NEAR(s.StdDev(), 2.138, 0.001);  // Sample (n-1) deviation.
    EXPECT_DOUBLE_EQ(s.Min(), 2.0);
    EXPECT_DOUBLE_EQ(s.Max(), 9.0);
    // 8 samples: 7 degrees of freedom, Student-t critical value 2.365.
    EXPECT_NEAR(s.Ci95(), 2.365 * 2.138 / std::sqrt(8.0), 0.001);
}

TEST(SummaryTest, SingleSampleHasNoSpread)
{
    Summary s;
    s.Add(42.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
    EXPECT_DOUBLE_EQ(s.Ci95(), 0.0);
    EXPECT_DOUBLE_EQ(s.Min(), 42.0);
    EXPECT_DOUBLE_EQ(s.Max(), 42.0);
}

TEST(SummaryTest, ValuesPreservedInOrder)
{
    Summary s;
    s.Add(3.0);
    s.Add(1.0);
    s.Add(2.0);
    ASSERT_EQ(s.values().size(), 3u);
    EXPECT_DOUBLE_EQ(s.values()[0], 3.0);
    EXPECT_DOUBLE_EQ(s.values()[1], 1.0);
    EXPECT_DOUBLE_EQ(s.values()[2], 2.0);
}

}  // namespace
}  // namespace spur::stats
