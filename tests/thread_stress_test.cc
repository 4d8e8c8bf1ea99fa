/**
 * @file
 * Concurrency stress tests for the parallel-runner machinery:
 * ParallelFor's shared cursor and error slots, RunMatrix, and the
 * serialized logger.  These are written for the TSan preset
 * (build-tsan/) — under ThreadSanitizer any data race in the exercised
 * paths fails the test — but they also run in every other build as
 * plain correctness checks.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/core/experiment.h"
#include "src/runner/runner.h"

namespace spur::runner {
namespace {

TEST(ParallelForStressTest, ConcurrentCallersShareNoState)
{
    // Three threads of one ParallelFor each run their own ParallelFor:
    // every call owns its cursor and error slots, so the inner loops
    // neither lose nor repeat an index of one another.
    std::atomic<uint64_t> sum{0};
    ParallelFor(3, /*jobs=*/3, [&sum](size_t f) {
        ParallelFor(2'000, /*jobs=*/4, [&sum, f](size_t i) {
            sum.fetch_add(f * 10'000 + i % 7, std::memory_order_relaxed);
        });
    });
    uint64_t expected = 0;
    for (uint64_t f = 0; f < 3; ++f) {
        for (uint64_t i = 0; i < 2'000; ++i) {
            expected += f * 10'000 + i % 7;
        }
    }
    EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelForStressTest, AllIndicesVisitedExactlyOnce)
{
    constexpr size_t kCount = 10'000;
    std::vector<std::atomic<int>> visits(kCount);
    ParallelFor(kCount, /*jobs=*/8, [&](size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelForStressTest, ExceptionsPropagateWithoutRaces)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(
        ParallelFor(512, /*jobs=*/8,
                    [&](size_t i) {
                        ran.fetch_add(1, std::memory_order_relaxed);
                        if (i % 17 == 3) {
                            throw std::runtime_error("injected");
                        }
                    }),
        std::runtime_error);
    EXPECT_EQ(ran.load(), 512);  // A failure never cancels other items.
}

TEST(LogStressTest, ConcurrentLoggingAndVerbosityToggles)
{
    // Warn/Inform serialize on an internal mutex and SetVerbose flips
    // shared state; hammering them together is the TSan target.  Output
    // goes to stderr, so keep the volume modest.
    SetVerbose(false);
    ParallelFor(6, /*jobs=*/6, [](size_t t) {
        for (int i = 0; i < 200; ++i) {
            if (t == 0 && i % 50 == 0) {
                SetVerbose(i % 100 == 0);
            } else if (t % 2 == 0) {
                Inform("stress inform " + std::to_string(i));
            } else if (i % 100 == 99) {
                Warn("stress warn " + std::to_string(t));
            }
        }
    });
    SetVerbose(true);
}

TEST(RunMatrixStressTest, ParallelMatrixMatchesSequential)
{
    // The determinism contract under contention: many small cells, more
    // jobs than cores — bit-identical results at any job count, no races
    // under TSan.
    std::vector<core::RunConfig> configs;
    for (const policy::DirtyPolicyKind dirty :
         {policy::DirtyPolicyKind::kSpur, policy::DirtyPolicyKind::kFault}) {
        core::RunConfig config;
        config.workload = core::WorkloadId::kSlc;
        config.memory_mb = 5;
        config.dirty = dirty;
        config.refs = 60'000;
        configs.push_back(config);
    }

    const auto sequential = RunMatrix(configs, /*reps=*/3, /*jobs=*/1);
    const auto parallel = RunMatrix(configs, /*reps=*/3, /*jobs=*/6);

    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
        ASSERT_EQ(sequential[i].size(), parallel[i].size());
        for (size_t r = 0; r < sequential[i].size(); ++r) {
            EXPECT_EQ(sequential[i][r].page_ins, parallel[i][r].page_ins);
            EXPECT_EQ(sequential[i][r].refs_issued,
                      parallel[i][r].refs_issued);
            for (size_t e = 0; e < sim::kNumEvents; ++e) {
                const auto event = static_cast<sim::Event>(e);
                ASSERT_EQ(sequential[i][r].events.Get(event),
                          parallel[i][r].events.Get(event))
                    << sim::ToString(event);
            }
        }
    }
}

}  // namespace
}  // namespace spur::runner
