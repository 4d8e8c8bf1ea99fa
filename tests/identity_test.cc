/**
 * @file
 * What a dirty-bit policy may change, checked as exact identities on the
 * same reference stream.  audit::AuditDominance's min-trajectory pass is
 * the oracle: its kMayMove table is the one statement of which events a
 * policy may move away from MIN's, so these tests and every RunMatrix
 * grid enforce the same rule.
 *
 *  - Every policy pair equals MIN on every event outside its kMayMove
 *    rows, over both paper workloads and the scenario library at 5 and
 *    8 MB; FLUSH must move the cache contents, or the grid has stopped
 *    seeing flushes.
 *  - FLUSH/MISS, the one pair with no identity, pinned at flush-storm's
 *    default budget.
 *  - REF gives true reference bits: under it every dirty policy pages
 *    exactly as the TLB machine, whose bits are free and exact.
 *  - A 1-CPU multiprocessor counts what the uniprocessor counts.
 *  - FAULT's excess faults and SPUR's dirty-bit misses are the same
 *    event population (Section 3.1).
 *  - SPUR-PROT is performance-identical to SPUR (Section 3.1's
 *    "the performance of this scheme is identical").
 *  - WRITE-HW never charges fault cycles.
 *  - MIN's dirty-bit cycles lower-bound every other policy's.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/dominance.h"
#include "src/core/experiment.h"
#include "src/core/mp_system.h"
#include "src/core/system.h"
#include "src/core/tlb_system.h"
#include "src/runner/runner.h"
#include "src/workload/driver.h"
#include "src/workload/process.h"
#include "src/workload/workloads.h"

namespace spur::core {
namespace {

using policy::DirtyPolicyKind;
using policy::RefPolicyKind;

struct RunStats {
    uint64_t n_ds = 0;
    uint64_t n_zfod = 0;
    uint64_t excess = 0;
    uint64_t dirty_miss = 0;
    uint64_t page_ins = 0;
    uint64_t misses = 0;
    Cycles fault_cycles = 0;
    Cycles aux_cycles = 0;
    Cycles flush_cycles = 0;
};

RunStats
RunPolicy(DirtyPolicyKind dirty, uint64_t seed, uint64_t refs = 400'000)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(5);
    SpurSystem system(config, dirty, RefPolicyKind::kMiss);
    workload::ProcessProfile profile;
    profile.code_pages = 48;
    profile.data_pages = 64;
    profile.heap_pages = 700;   // Enough to page at 5 MB.
    profile.heap_ws_pages = 260;
    profile.w_scan_update = 0.4;  // Plenty of stale-copy events.
    workload::SyntheticProcess process(system, profile, seed);
    for (uint64_t i = 0; i < refs; ++i) {
        process.Step();
    }
    RunStats stats;
    const auto& ev = system.events();
    stats.n_ds = ev.Get(sim::Event::kDirtyFault);
    stats.n_zfod = ev.Get(sim::Event::kDirtyFaultZfod);
    stats.excess = ev.Get(sim::Event::kExcessFault);
    stats.dirty_miss = ev.Get(sim::Event::kDirtyBitMiss);
    stats.page_ins = ev.Get(sim::Event::kPageIn);
    stats.misses = ev.TotalMisses();
    stats.fault_cycles = system.timing().Get(sim::TimeBucket::kFault);
    stats.aux_cycles = system.timing().Get(sim::TimeBucket::kDirtyAux);
    stats.flush_cycles = system.timing().Get(sim::TimeBucket::kFlush);
    return stats;
}

class CrossPolicyTest : public testing::TestWithParam<uint64_t>
{
};

TEST_P(CrossPolicyTest, FaultExcessEqualsSpurDirtyMisses)
{
    const RunStats fault = RunPolicy(DirtyPolicyKind::kFault, GetParam());
    const RunStats spur = RunPolicy(DirtyPolicyKind::kSpur, GetParam());
    // Same stream, same stale-copy events, different mechanism.
    EXPECT_EQ(fault.excess, spur.dirty_miss);
    EXPECT_EQ(fault.n_ds, spur.n_ds);
    EXPECT_EQ(fault.n_zfod, spur.n_zfod);
    EXPECT_EQ(fault.page_ins, spur.page_ins);
    EXPECT_EQ(fault.misses, spur.misses);
    EXPECT_EQ(fault.dirty_miss, 0u);
    EXPECT_EQ(spur.excess, 0u);
}

TEST_P(CrossPolicyTest, SpurProtIsIdenticalToSpur)
{
    // The paper: "Since the performance of this scheme is identical to
    // what we implemented in SPUR, we will not discuss it separately."
    const RunStats spur = RunPolicy(DirtyPolicyKind::kSpur, GetParam());
    const RunStats prot = RunPolicy(DirtyPolicyKind::kSpurProt, GetParam());
    EXPECT_EQ(prot.n_ds, spur.n_ds);
    EXPECT_EQ(prot.dirty_miss, spur.dirty_miss);
    EXPECT_EQ(prot.page_ins, spur.page_ins);
    EXPECT_EQ(prot.misses, spur.misses);
    EXPECT_EQ(prot.fault_cycles, spur.fault_cycles);
    EXPECT_EQ(prot.aux_cycles, spur.aux_cycles);
}

TEST_P(CrossPolicyTest, WriteHwNeverFaultsForDirtyBits)
{
    const RunStats min = RunPolicy(DirtyPolicyKind::kMin, GetParam());
    const RunStats hw = RunPolicy(DirtyPolicyKind::kWriteHw, GetParam());
    // MIN's fault bucket = page faults + ref faults + N_ds * t_ds;
    // WRITE-HW's lacks the N_ds term entirely.
    const Cycles t_ds = sim::MachineConfig::Prototype(5).t_fault;
    EXPECT_EQ(hw.fault_cycles + min.n_ds * t_ds, min.fault_cycles);
    // But it pays checks on every first block write.
    EXPECT_GT(hw.aux_cycles, 0u);
}

TEST_P(CrossPolicyTest, MinLowerBoundsDirtyCycles)
{
    // MIN's dirty-machinery time (fault + aux + flush attributable to
    // dirty bits) must not exceed any other policy's on the same stream.
    const RunStats min = RunPolicy(DirtyPolicyKind::kMin, GetParam());
    const Cycles min_total =
        min.fault_cycles + min.aux_cycles + min.flush_cycles;
    for (const DirtyPolicyKind kind :
         {DirtyPolicyKind::kFault, DirtyPolicyKind::kFlush,
          DirtyPolicyKind::kSpur, DirtyPolicyKind::kWrite,
          DirtyPolicyKind::kSpurProt}) {
        const RunStats other = RunPolicy(kind, GetParam());
        EXPECT_GE(other.fault_cycles + other.aux_cycles +
                      other.flush_cycles,
                  min_total)
            << ToString(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossPolicyTest,
                         testing::Values(1, 7, 23, 91, 1234),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// min-trajectory over the workload grid.
// ---------------------------------------------------------------------------

/** Every dirty policy under each of @p refs on @p workload at each of
 *  @p memory_mbs, seed 3; dirty varies fastest, in kAllDirtyPolicies
 *  order, so each group of seven cells starts with its MIN cell. */
std::vector<RunConfig>
PolicyGrid(WorkloadId workload, std::vector<RefPolicyKind> refs,
           std::vector<uint32_t> memory_mbs, uint64_t budget)
{
    std::vector<RunConfig> configs;
    for (const uint32_t memory_mb : memory_mbs) {
        for (const RefPolicyKind ref : refs) {
            for (const DirtyPolicyKind dirty : policy::kAllDirtyPolicies) {
                RunConfig config;
                config.workload = workload;
                config.memory_mb = memory_mb;
                config.dirty = dirty;
                config.ref = ref;
                config.refs = budget;
                config.seed = 3;
                configs.push_back(config);
            }
        }
    }
    return configs;
}

constexpr size_t kGroup = std::size(policy::kAllDirtyPolicies);

std::string
CellName(const RunConfig& config)
{
    return std::string(policy::ToString(config.dirty)) + "/" +
           policy::ToString(config.ref) + " at " +
           std::to_string(config.memory_mb) + " MB";
}

/** A test-name-safe workload name ("flush-storm" -> "flush_storm"). */
std::string
WorkloadName(const testing::TestParamInfo<WorkloadId>& info)
{
    std::string name = ToString(info.param);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

class MinTrajectoryTest : public testing::TestWithParam<WorkloadId>
{
};

TEST_P(MinTrajectoryTest, EveryPolicyMovesOnlyItsOwnEvents)
{
    const std::vector<RunConfig> configs = PolicyGrid(
        GetParam(),
        {std::begin(policy::kAllRefPolicies),
         std::end(policy::kAllRefPolicies)},
        {5, 8}, 1'000'000);
    // RunMatrix aborts on an audit error; the report is read here too, so
    // that the test keeps its meaning whatever RunMatrix audits.
    const auto results = runner::RunMatrix(configs, 1, /*jobs=*/2);
    const check::AuditReport report = audit::AuditDominance(configs, results);
    EXPECT_EQ(report.CountFor(audit::kPassMinTrajectory), 0u)
        << report.Summary();

    for (size_t i = 0; i < configs.size(); ++i) {
        const RunConfig& config = configs[i];
        const size_t min_cell = i - i % kGroup;
        ASSERT_EQ(configs[min_cell].dirty, DirtyPolicyKind::kMin);
        const sim::EventCounts& events = results[i][0].events;
        const sim::EventCounts& min = results[min_cell][0].events;
        // A grid in which FLUSH moves no cache content has stopped
        // seeing flushes, and its identities prove nothing about them.
        if (config.dirty == DirtyPolicyKind::kFlush) {
            size_t moved = 0;
            for (size_t e = 0; e < sim::kNumEvents; ++e) {
                const auto event = static_cast<sim::Event>(e);
                if ((audit::kCacheContentEvents & audit::Events({event})) &&
                    events.Get(event) != min.Get(event)) {
                    ++moved;
                }
            }
            EXPECT_GT(moved, 0u) << CellName(config);
        }
        // FAULT's excess faults are SPUR's dirty-bit misses.
        if (config.dirty == DirtyPolicyKind::kSpur) {
            ASSERT_EQ(configs[min_cell + 1].dirty, DirtyPolicyKind::kFault);
            EXPECT_EQ(
                results[min_cell + 1][0].events.Get(sim::Event::kExcessFault),
                events.Get(sim::Event::kDirtyBitMiss))
                << CellName(config);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, MinTrajectoryTest,
                         testing::ValuesIn(kAllWorkloads), WorkloadName);

TEST(IdentityTest, FlushMissPagesDifferentlyFromMinOnFlushStorm)
{
    // FLUSH/MISS has no min-trajectory identity: its flushes' misses set
    // reference bits, so the page daemon picks other victims.  Pinned at
    // flush-storm's default budget, 5 MB, config seed 1, rep 0.
    RunConfig min;
    min.workload = WorkloadId::kFlushStorm;
    min.memory_mb = 5;
    min.dirty = DirtyPolicyKind::kMin;
    min.ref = RefPolicyKind::kMiss;
    min.refs = 0;
    min.seed = 1;
    RunConfig flush = min;
    flush.dirty = DirtyPolicyKind::kFlush;
    const auto results = runner::RunMatrix({min, flush}, 1, /*jobs=*/2);
    const sim::EventCounts& m = results[0][0].events;
    const sim::EventCounts& f = results[1][0].events;
    EXPECT_EQ(results[0][0].refs_issued, DefaultRefs(WorkloadId::kFlushStorm));
    EXPECT_EQ(m.Get(sim::Event::kRefFault), 20'171u);
    EXPECT_EQ(f.Get(sim::Event::kRefFault), 20'445u);
    EXPECT_EQ(m.Get(sim::Event::kPageIn), 19'985u);
    EXPECT_EQ(f.Get(sim::Event::kPageIn), 19'806u);
    EXPECT_EQ(m.Get(sim::Event::kPageOutDirty), 19'786u);
    EXPECT_EQ(f.Get(sim::Event::kPageOutDirty), 19'678u);
    EXPECT_EQ(m.Get(sim::Event::kDirtyFault), 27'657u);
    EXPECT_EQ(f.Get(sim::Event::kDirtyFault), 27'622u);
    EXPECT_EQ(m.Get(sim::Event::kDirtyFaultZfod), 13'899u);
    EXPECT_EQ(f.Get(sim::Event::kDirtyFaultZfod), 13'950u);
}

// ---------------------------------------------------------------------------
// REF gives true reference bits.
// ---------------------------------------------------------------------------

/** @p config's workload on the TLB + physical-cache machine, with
 *  RunOnce's budget, scheduling slice and page-in latency. */
RunResult
RunOnTlbMachine(const RunConfig& config)
{
    sim::MachineConfig machine =
        sim::MachineConfig::Prototype(config.memory_mb);
    machine.page_in_us = kScaledPageInUs;
    TlbSystem system(machine);
    workload::WorkloadSpec spec = SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    workload::Driver driver(system, std::move(spec), config.refs, config.seed,
                            slice_refs);
    driver.Run();
    return FinishRun(system.kernel(), driver.refs_issued());
}

class TlbRefTest : public testing::TestWithParam<WorkloadId>
{
};

TEST_P(TlbRefTest, RefPagesExactlyAsTheTlbMachine)
{
    // The TLB machine's reference bits are exact and free.  REF's bit
    // clear flushes the page, so its next reference misses and sets the
    // bit: every dirty policy then pages as the TLB machine does.  The
    // budget lets every workload's page daemon clear reference bits.
    const std::vector<RunConfig> configs =
        PolicyGrid(GetParam(), {RefPolicyKind::kRef}, {5}, 4'000'000);
    const std::vector<RunResult> results = runner::RunAll(configs, 2);
    for (size_t group = 0; group < configs.size(); group += kGroup) {
        const sim::EventCounts tlb = RunOnTlbMachine(configs[group]).events;
        EXPECT_GT(tlb.Get(sim::Event::kRefClear), 0u);
        for (size_t i = group; i < group + kGroup; ++i) {
            SCOPED_TRACE(CellName(configs[i]));
            for (const sim::Event event :
                 {sim::Event::kPageIn, sim::Event::kPageOutDirty,
                  sim::Event::kZeroFill, sim::Event::kRefClear}) {
                EXPECT_EQ(results[i].events.Get(event), tlb.Get(event))
                    << sim::ToString(event);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TlbRefTest,
                         testing::ValuesIn(kAllWorkloads), WorkloadName);

// ---------------------------------------------------------------------------
// One Sprite kernel on both SPUR machines.
// ---------------------------------------------------------------------------

TEST(IdentityTest, OneCpuMatchesUniprocessorOnEveryNonBusEvent)
{
    // One Sprite kernel runs under both machines, so on the same job
    // stream a 1-CPU multiprocessor counts exactly what the uniprocessor
    // counts — lifecycle included — apart from its bus transactions, and
    // spends the same cycles in every bucket but one: each ownership
    // upgrade before a store stalls the processor one extra cycle.
    // The budget runs past a process's end, so teardown is exercised.
    constexpr uint64_t kRefs = 400'000;
    constexpr uint64_t kSeed = 7;
    const sim::MachineConfig config = sim::MachineConfig::Prototype(5);
    for (const DirtyPolicyKind dirty : policy::kAllDirtyPolicies) {
        for (const RefPolicyKind ref : policy::kAllRefPolicies) {
            SCOPED_TRACE(std::string(policy::ToString(dirty)) + "/" +
                         policy::ToString(ref));
            SpurSystem uni(config, dirty, ref);
            workload::Driver uni_driver(uni, workload::MakeWorkload1(),
                                        kRefs, kSeed);
            uni_driver.Run();
            ASSERT_GT(uni_driver.NumSpawns(), uni_driver.NumLive());

            MpSpurSystem mp(config, 1, dirty, ref);
            MpSpurSystem::CpuPort port = mp.Port(0);
            workload::Driver mp_driver(port, workload::MakeWorkload1(),
                                       kRefs, kSeed);
            mp_driver.Run();

            const sim::EventCounts& mp_events = mp.kernel().events();
            for (size_t i = 0; i < sim::kNumEvents; ++i) {
                const auto event = static_cast<sim::Event>(i);
                if (event >= sim::Event::kBusRead) {
                    continue;
                }
                EXPECT_EQ(mp_events.Get(event), uni.events().Get(event))
                    << sim::ToString(event);
            }
            const uint64_t upgrades = mp_events.Get(sim::Event::kBusUpgrade);
            EXPECT_GT(upgrades, 0u);
            for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
                const auto bucket = static_cast<sim::TimeBucket>(i);
                const Cycles extra =
                    bucket == sim::TimeBucket::kMissStall ? upgrades : 0;
                EXPECT_EQ(mp.kernel().timing().Get(bucket),
                          uni.timing().Get(bucket) + extra)
                    << sim::ToString(bucket);
            }
        }
    }
}

}  // namespace
}  // namespace spur::core
