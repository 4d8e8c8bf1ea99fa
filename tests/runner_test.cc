/**
 * @file
 * Tests for the run-orchestration layer (src/runner/): the determinism
 * contract (parallel results bit-identical to sequential) and the
 * exception safety of ParallelFor.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/runner/runner.h"

namespace spur::runner {
namespace {

core::RunConfig
SmallRun()
{
    core::RunConfig config;
    config.workload = core::WorkloadId::kSlc;
    config.memory_mb = 8;
    config.refs = 150'000;
    config.seed = 5;
    return config;
}

std::vector<core::RunConfig>
SmallMatrix()
{
    std::vector<core::RunConfig> configs(2, SmallRun());
    configs[1].ref = policy::RefPolicyKind::kNoRef;
    return configs;
}

/** Field-by-field bit equality of two run results. */
void
ExpectIdentical(const core::RunResult& a, const core::RunResult& b)
{
    EXPECT_EQ(a.refs_issued, b.refs_issued);
    EXPECT_EQ(a.page_ins, b.page_ins);
    EXPECT_EQ(a.page_outs, b.page_outs);
    EXPECT_EQ(a.events.TotalRefs(), b.events.TotalRefs());
    EXPECT_EQ(a.events.TotalMisses(), b.events.TotalMisses());
    EXPECT_EQ(a.frequencies.n_ds, b.frequencies.n_ds);
    EXPECT_EQ(a.frequencies.n_zfod, b.frequencies.n_zfod);
    EXPECT_EQ(a.frequencies.n_ef, b.frequencies.n_ef);
    EXPECT_EQ(a.frequencies.n_w_hit, b.frequencies.n_w_hit);
    EXPECT_EQ(a.frequencies.n_w_miss, b.frequencies.n_w_miss);
    // Timing accumulates in deterministic integer cycle counts, so even
    // the floating-point seconds must match exactly.
    EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
    for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
        const auto bucket = static_cast<sim::TimeBucket>(i);
        EXPECT_EQ(a.timing.Get(bucket), b.timing.Get(bucket));
    }
}

TEST(RunnerTest, ParallelMatrixBitIdenticalToSequential)
{
    const auto configs = SmallMatrix();
    const auto sequential = RunMatrix(configs, /*reps=*/2, /*jobs=*/1);
    const auto parallel = RunMatrix(configs, /*reps=*/2, /*jobs=*/4);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
        ASSERT_EQ(sequential[i].size(), parallel[i].size());
        for (size_t r = 0; r < sequential[i].size(); ++r) {
            ExpectIdentical(sequential[i][r], parallel[i][r]);
        }
    }
}

TEST(RunnerTest, DefaultJobCountMatchesExplicitJobCount)
{
    // jobs=0 (hardware concurrency) agrees with an explicit parallel
    // run: callers leaving the count to the machine get the same bytes
    // as callers picking a count by hand.
    const auto configs = SmallMatrix();
    const auto via_default = RunMatrix(configs, /*reps=*/1, /*jobs=*/0);
    const auto via_explicit = RunMatrix(configs, /*reps=*/1, /*jobs=*/3);
    for (size_t i = 0; i < via_default.size(); ++i) {
        ExpectIdentical(via_default[i][0], via_explicit[i][0]);
    }
}

TEST(RunnerTest, CellSeedMatchesHistoricalDerivation)
{
    // The derivation the sequential RunMatrix always used; changing it
    // would silently shift every recorded experiment result.
    EXPECT_EQ(CellSeed(1, 0), 1u * 1000003 + 17);
    EXPECT_EQ(CellSeed(1, 2), 1u * 1000003 + 2 * 7919 + 17);
    EXPECT_EQ(CellSeed(42, 1), 42u * 1000003 + 7919 + 17);
}

TEST(RunnerTest, RunAllPreservesInputOrderAndSeeds)
{
    std::vector<core::RunConfig> configs(3, SmallRun());
    configs[1].seed = 6;
    configs[2].memory_mb = 5;
    const auto parallel = RunAll(configs, /*jobs=*/3);
    ASSERT_EQ(parallel.size(), 3u);
    for (size_t i = 0; i < configs.size(); ++i) {
        ExpectIdentical(parallel[i], core::RunOnce(configs[i]));
    }
}

TEST(RunnerTest, ThrowingCellDoesNotDeadlockAndRethrows)
{
    std::atomic<int> executed{0};
    EXPECT_THROW(
        ParallelFor(8, /*jobs=*/4,
                    [&](size_t i) {
                        ++executed;
                        if (i == 3) {
                            throw std::runtime_error("cell failed");
                        }
                    }),
        std::runtime_error);
    // Every other cell still ran, and every thread was joined.
    EXPECT_EQ(executed.load(), 8);
}

TEST(RunnerTest, FirstExceptionInIndexOrderWins)
{
    try {
        ParallelFor(6, /*jobs=*/3, [](size_t i) {
            if (i == 2 || i == 5) {
                throw std::runtime_error("cell " + std::to_string(i));
            }
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "cell 2");
    }
}

TEST(RunnerTest, PoolUsableAfterAnException)
{
    EXPECT_THROW(ParallelFor(2, /*jobs=*/2,
                             [](size_t) {
                                 throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    std::atomic<int> count{0};
    ParallelFor(16, /*jobs=*/4, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 16);
}

TEST(RunnerTest, HardwareJobsIsAtLeastOne)
{
    EXPECT_GE(HardwareJobs(), 1u);
}

TEST(RunnerTest, MatrixOrderIsTheHistoricalShuffle)
{
    // The Section 4.2 run order, pinned: it decides which cell of a
    // stream records under --record-trace at --jobs=1, so it must not
    // drift.
    const std::vector<std::pair<size_t, uint32_t>> expected = {
        {0, 0}, {0, 2}, {2, 3}, {0, 3}, {2, 1}, {2, 2},
        {1, 1}, {1, 3}, {2, 0}, {1, 2}, {1, 0}, {0, 1},
    };
    std::vector<std::pair<size_t, uint32_t>> order;
    for (const CellId& cell : MatrixOrder(3, 4)) {
        order.emplace_back(cell.config_index, cell.rep);
    }
    EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace spur::runner
