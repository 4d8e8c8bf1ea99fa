/**
 * @file
 * Tests for the machine model: configuration validation, derived timing
 * quantities, the event-count ground truth, the hardware performance
 * counters (mode multiplexing, 32-bit wrap, reads since a snapshot) and the
 * timing buckets.
 */
#include <gtest/gtest.h>

#include "src/sim/config.h"
#include "src/sim/counters.h"
#include "src/sim/events.h"
#include "src/sim/timing.h"

namespace spur::sim {
namespace {

// ---------------------------------------------------------------------------
// MachineConfig
// ---------------------------------------------------------------------------

TEST(MachineConfigTest, PrototypeMatchesTable21)
{
    const MachineConfig config = MachineConfig::Prototype(8);
    EXPECT_EQ(config.cache_bytes, 128u * 1024);
    EXPECT_EQ(config.block_bytes, 32u);
    EXPECT_EQ(config.page_bytes, 4096u);
    EXPECT_DOUBLE_EQ(config.cpu_cycle_ns, 150.0);
    EXPECT_DOUBLE_EQ(config.bus_cycle_ns, 125.0);
    EXPECT_EQ(config.mem_first_word_cycles, 3u);
    EXPECT_EQ(config.mem_next_word_cycles, 1u);
    EXPECT_EQ(config.memory_bytes, 8ull * 1024 * 1024);
}

TEST(MachineConfigTest, Table32TimeParameters)
{
    const MachineConfig config = MachineConfig::Prototype(8);
    EXPECT_EQ(config.t_fault, 1000u);
    EXPECT_EQ(config.t_flush_page, 500u);
    EXPECT_EQ(config.t_dirty_miss, 25u);
    EXPECT_EQ(config.t_dirty_check, 5u);
}

TEST(MachineConfigTest, DerivedQuantities)
{
    const MachineConfig config = MachineConfig::Prototype(8);
    EXPECT_EQ(config.NumBlocks(), 4096u);
    EXPECT_EQ(config.BlocksPerPage(), 128u);
    EXPECT_EQ(config.NumFrames(), 2048u);
    EXPECT_EQ(config.BlockShift(), 5u);
    EXPECT_EQ(config.PageShift(), 12u);
    EXPECT_EQ(config.IndexBits(), 12u);
    // 32-byte block = 8 words: 3 + 7 * 1 = 10 bus cycles.
    EXPECT_EQ(config.BlockFetchBusCycles(), 10u);
    // 10 * 125ns = 1250ns; at 150ns/CPU-cycle -> ceil = 9 cycles.
    EXPECT_EQ(config.BlockFetchCycles(), 9u);
}

TEST(MachineConfigTest, PageInCycles)
{
    MachineConfig config = MachineConfig::Prototype(8);
    config.page_in_us = 1500.0;  // 1.5 ms.
    EXPECT_EQ(config.PageInCycles(), 10000u);  // 1.5e6 ns / 150 ns.
}

TEST(MachineConfigDeathTest, RejectsNonPowerOfTwo)
{
    MachineConfig config = MachineConfig::Prototype(8);
    config.block_bytes = 24;
    EXPECT_EXIT(config.Validate(), testing::ExitedWithCode(1), "power of");
}

TEST(MachineConfigDeathTest, RejectsTinyMemory)
{
    MachineConfig config;
    config.memory_bytes = 64 * 1024;
    EXPECT_EXIT(config.Validate(), testing::ExitedWithCode(1),
                "memory too small");
}

TEST(MachineConfigDeathTest, RejectsBadWatermarks)
{
    MachineConfig config = MachineConfig::Prototype(8);
    config.daemon_low_frac = 0.2;
    config.daemon_high_frac = 0.1;
    EXPECT_EXIT(config.Validate(), testing::ExitedWithCode(1), "watermark");
}

// ---------------------------------------------------------------------------
// EventCounts
// ---------------------------------------------------------------------------

TEST(EventCountsTest, StartsZeroAndAccumulates)
{
    EventCounts counts;
    for (size_t i = 0; i < kNumEvents; ++i) {
        EXPECT_EQ(counts.Get(static_cast<Event>(i)), 0u);
    }
    counts.Add(Event::kRead);
    counts.Add(Event::kRead, 4);
    EXPECT_EQ(counts.Get(Event::kRead), 5u);
}

TEST(EventCountsTest, Totals)
{
    EventCounts counts;
    counts.Add(Event::kIFetch, 10);
    counts.Add(Event::kRead, 5);
    counts.Add(Event::kWrite, 2);
    counts.Add(Event::kIFetchMiss, 1);
    counts.Add(Event::kReadMiss, 2);
    counts.Add(Event::kWriteMiss, 3);
    EXPECT_EQ(counts.TotalRefs(), 17u);
    EXPECT_EQ(counts.TotalMisses(), 6u);
}

TEST(EventCountsTest, EveryEventHasAName)
{
    for (size_t i = 0; i < kNumEvents; ++i) {
        EXPECT_STRNE(ToString(static_cast<Event>(i)), "?");
    }
}

// ---------------------------------------------------------------------------
// PerfCounters
// ---------------------------------------------------------------------------

TEST(PerfCountersTest, ModeSelectsEventSet)
{
    const EventCounts counts;
    PerfCounters counters(counts);
    counters.SetMode(0);
    EXPECT_GE(counters.IndexOf(Event::kIFetch), 0);
    EXPECT_EQ(counters.IndexOf(Event::kDirtyFault), -1);
    counters.SetMode(2);
    EXPECT_GE(counters.IndexOf(Event::kDirtyFault), 0);
    EXPECT_EQ(counters.IndexOf(Event::kIFetch), -1);
}

TEST(PerfCountersTest, ObserveAccumulatesOnlyCapturedEvents)
{
    EventCounts counts;
    PerfCounters counters(counts);
    counters.SetMode(0);
    counts.Add(Event::kIFetch, 3);
    counts.Add(Event::kDirtyFault, 7);  // Not in mode 0.
    const int slot = counters.IndexOf(Event::kIFetch);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(counters.Read(static_cast<size_t>(slot)), 3u);
    // The uncaptured event left every register unchanged.
    uint32_t total = 0;
    for (size_t i = 0; i < kNumHwCounters; ++i) {
        total += counters.Read(i);
    }
    EXPECT_EQ(total, 3u);
}

TEST(PerfCountersTest, SetModeClearsRegisters)
{
    EventCounts counts;
    PerfCounters counters(counts);
    counters.SetMode(0);
    counts.Add(Event::kIFetch, 100);
    counters.SetMode(1);
    for (size_t i = 0; i < kNumHwCounters; ++i) {
        EXPECT_EQ(counters.Read(i), 0u);
    }
}

TEST(PerfCountersTest, RegistersWrapAt32Bits)
{
    EventCounts counts;
    counts.Add(Event::kIFetch, 5);
    PerfCounters counters(counts);
    counters.SetMode(0);
    const int slot = counters.IndexOf(Event::kIFetch);
    ASSERT_GE(slot, 0);
    counts.Add(Event::kIFetch, 0xFFFFFFFFu);
    counts.Add(Event::kIFetch, 2);
    EXPECT_EQ(counters.Read(static_cast<size_t>(slot)), 1u);
}

TEST(PerfCountersTest, SlotEventTableIsConsistent)
{
    // Every (mode, slot) pair either names a real event or is unused, and
    // IndexOf agrees with SlotEvent.
    const EventCounts counts;
    for (unsigned mode = 0; mode < kNumCounterModes; ++mode) {
        PerfCounters counters(counts);
        counters.SetMode(mode);
        for (size_t slot = 0; slot < kNumHwCounters; ++slot) {
            const Event event = PerfCounters::SlotEvent(mode, slot);
            if (event != Event::kCount) {
                EXPECT_EQ(counters.IndexOf(event),
                          static_cast<int>(slot));
            }
        }
    }
}

TEST(PerfCountersTest, ReadsTheCountsSinceTheLastClear)
{
    EventCounts counts;
    counts.Add(Event::kDirtyFault, 40);  // Before the window: not read.
    PerfCounters counters(counts);
    counters.SetMode(2);
    counts.Add(Event::kDirtyFault, 5);
    counts.Add(Event::kDirtyBitMiss, 2);
    counts.Add(Event::kIFetch, 99);  // Not captured in mode 2.
    const int ds = counters.IndexOf(Event::kDirtyFault);
    const int dm = counters.IndexOf(Event::kDirtyBitMiss);
    ASSERT_GE(ds, 0);
    ASSERT_GE(dm, 0);
    EXPECT_EQ(counters.Read(static_cast<size_t>(ds)), 5u);
    EXPECT_EQ(counters.Read(static_cast<size_t>(dm)), 2u);
    counters.Clear();
    EXPECT_EQ(counters.Read(static_cast<size_t>(ds)), 0u);
    EXPECT_EQ(counters.mode(), 2u);
    counts.Add(Event::kDirtyFault, 3);
    EXPECT_EQ(counters.Read(static_cast<size_t>(ds)), 3u);
}

TEST(PerfCountersDeathTest, RejectsBadMode)
{
    const EventCounts counts;
    PerfCounters counters(counts);
    EXPECT_EXIT(counters.SetMode(4), testing::ExitedWithCode(1), "mode");
}

// ---------------------------------------------------------------------------
// TimingModel
// ---------------------------------------------------------------------------

TEST(TimingModelTest, ChargesAndTotals)
{
    const MachineConfig config = MachineConfig::Prototype(8);
    TimingModel timing(config);
    timing.Charge(TimeBucket::kExecute, 100);
    timing.Charge(TimeBucket::kFault, 1000);
    timing.Charge(TimeBucket::kExecute, 50);
    EXPECT_EQ(timing.Get(TimeBucket::kExecute), 150u);
    EXPECT_EQ(timing.Get(TimeBucket::kFault), 1000u);
    EXPECT_EQ(timing.Total(), 1150u);
}

TEST(TimingModelTest, SecondsConversion)
{
    const MachineConfig config = MachineConfig::Prototype(8);
    TimingModel timing(config);
    // 1e9 cycles at 150ns = 150 seconds.
    timing.Charge(TimeBucket::kExecute, 1'000'000'000ull);
    EXPECT_NEAR(timing.ElapsedSeconds(), 150.0, 1e-9);
    EXPECT_NEAR(timing.Seconds(TimeBucket::kExecute), 150.0, 1e-9);
    EXPECT_DOUBLE_EQ(timing.Seconds(TimeBucket::kFault), 0.0);
}

TEST(TimingModelTest, ResetZeroes)
{
    const MachineConfig config = MachineConfig::Prototype(8);
    TimingModel timing(config);
    timing.Charge(TimeBucket::kKernel, 42);
    timing.Reset();
    EXPECT_EQ(timing.Total(), 0u);
}

TEST(TimingModelTest, EveryBucketHasAName)
{
    for (size_t i = 0; i < kNumTimeBuckets; ++i) {
        EXPECT_STRNE(ToString(static_cast<TimeBucket>(i)), "?");
    }
}

}  // namespace
}  // namespace spur::sim
