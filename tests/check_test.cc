/**
 * @file
 * Tests for the invariant-audit subsystem (src/check/).
 *
 * Strategy: every built-in pass gets a pair of proofs —
 *   (a) it stays SILENT on healthy state (hand-built and full-system), and
 *   (b) it FIRES on deliberately corrupted state, injected either through
 *       the normal mutators (cache lines and PTEs are directly writable)
 *       or through the FrameTableTestAccess backdoor for states the
 *       FrameTable API correctly refuses to construct.
 * The dominance audits get the same treatment with fabricated matrices.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/check/checker.h"
#include "src/audit/dominance.h"
#include "src/check/invariants.h"
#include "src/check/report.h"
#include "src/common/random.h"
#include "src/core/experiment.h"
#include "src/core/mp_system.h"
#include "src/core/system.h"
#include "src/workload/process.h"

namespace spur::mem {

/** Friend backdoor: injects the free-list corruption the public API
 *  (correctly) panics on, so the frame-freelist pass can be exercised. */
struct FrameTableTestAccess {
    static std::vector<FrameNum>& FreeList(FrameTable& table)
    {
        return table.free_;
    }
    static void SetAllocated(FrameTable& table, FrameNum frame, bool value)
    {
        table.allocated_[frame] = value;
    }
    static void SetVpn(FrameTable& table, FrameNum frame, GlobalVpn vpn)
    {
        table.vpn_of_[frame] = vpn;
    }
};

}  // namespace spur::mem

namespace spur::check {
namespace {

using audit::AuditDominance;
using audit::IntrinsicDirtyFaults;
using audit::kPassMinDominance;
using audit::kPassNorefPageIns;
using policy::DirtyPolicyKind;
using policy::RefPolicyKind;
using workload::kHeapBase;

/** The pass names RunAllPasses begins, in its order. */
const std::vector<std::string> kAllPasses = {
    kPassCacheResident, kPassCachePteDirty, kPassProtectionEmulation,
    kPassFrameTable,    kPassFrameFreeList, kPassBackingStore,
    kPassRefFlush,      kPassMpCoherency,
};

/** Runs the single pass @p check under @p name; returns its violations. */
size_t
CountFires(const char* name,
           void (*check)(const AuditContext&, AuditReport&),
           const AuditContext& context)
{
    AuditReport report;
    report.BeginPass(name);
    check(context, report);
    return report.CountFor(name);
}

// ---------------------------------------------------------------------------
// Hand-built state: one cache, page table, frame table, backing store.
// ---------------------------------------------------------------------------

class PassTest : public testing::Test
{
  protected:
    PassTest()
        : config_(sim::MachineConfig::Prototype(8)),
          vcache_(config_),
          frames_(/*total_frames=*/32, /*wired_frames=*/2)
    {
        context_.config = &config_;
        context_.caches = {&vcache_};
        context_.table = &table_;
        context_.frames = &frames_;
        context_.store = &store_;
        context_.events = &events_;
        context_.dirty = DirtyPolicyKind::kSpur;
        context_.ref = RefPolicyKind::kMiss;
    }

    /** Makes page @p vpn resident the healthy way: frame allocated and
     *  bound, PTE valid and pointing back. */
    pt::Pte& MakeResident(GlobalVpn vpn,
                          Protection prot = Protection::kReadOnly)
    {
        const FrameNum frame = frames_.Allocate();
        EXPECT_NE(frame, kInvalidFrame);
        frames_.Bind(frame, vpn);
        pt::Pte& pte = table_.Ensure(vpn);
        pte.set_valid(true);
        pte.set_pfn(frame);
        pte.set_protection(prot);
        pte.set_cacheable(true);
        pte.set_referenced(true);
        return pte;
    }

    GlobalAddr AddrOf(GlobalVpn vpn) const
    {
        return vpn << config_.PageShift();
    }

    /** Caches the first block of @p vpn with PR/P copied from @p pte. */
    cache::LineRef CacheBlock(GlobalVpn vpn, const pt::Pte& pte)
    {
        return vcache_.Fill(AddrOf(vpn), pte.protection(), pte.dirty(),
                            nullptr);
    }

    /** Runs one pass over the fixture's state; returns its violations. */
    size_t Fires(const char* name,
                 void (*check)(const AuditContext&, AuditReport&)) const
    {
        return CountFires(name, check, context_);
    }

    sim::MachineConfig config_;
    cache::VirtualCache vcache_;
    pt::PageTable table_;
    mem::FrameTable frames_;
    mem::BackingStore store_;
    sim::EventCounts events_;
    AuditContext context_;
};

TEST_F(PassTest, HealthyStateIsSilentUnderEveryPass)
{
    // A clean read-only page and a legitimately dirty read-write page.
    const pt::Pte& clean = MakeResident(100, Protection::kReadOnly);
    CacheBlock(100, clean);
    pt::Pte& dirty = MakeResident(101, Protection::kReadWrite);
    dirty.set_dirty(true);
    cache::LineRef line = CacheBlock(101, dirty);
    cache::VirtualCache::MarkWritten(line);

    const AuditReport report = RunAllPasses(context_);
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.violations().empty()) << report.Summary();
    EXPECT_EQ(report.passes(), kAllPasses);
}

TEST_F(PassTest, CacheResidentFiresOnBlockOfNonResidentPage)
{
    const pt::Pte& pte = MakeResident(100);
    CacheBlock(100, pte);
    EXPECT_EQ(Fires(kPassCacheResident, CheckCacheResidency), 0u);

    // Cache a block of page 200, whose PTE is invalid (never mapped).
    vcache_.Fill(AddrOf(200), Protection::kReadOnly, false, nullptr);
    EXPECT_EQ(Fires(kPassCacheResident, CheckCacheResidency), 1u);
    EXPECT_FALSE(RunAllPasses(context_).ok());
}

TEST_F(PassTest, CachePteDirtyFiresWhenCachedPRunsAheadOfD)
{
    pt::Pte& pte = MakeResident(100, Protection::kReadWrite);
    cache::LineRef line = CacheBlock(100, pte);
    EXPECT_EQ(Fires(kPassCachePteDirty, CheckCacheDirtyCoherence), 0u);

    line.set_page_dirty(true);  // P set while the PTE's D bit is clear.
    EXPECT_EQ(Fires(kPassCachePteDirty, CheckCacheDirtyCoherence), 1u);

    pte.set_dirty(true);  // Recording the write repairs the invariant.
    EXPECT_EQ(Fires(kPassCachePteDirty, CheckCacheDirtyCoherence), 0u);
}

TEST_F(PassTest, CachePteDirtyFiresOnUnrecordedBlockWrite)
{
    pt::Pte& pte = MakeResident(100, Protection::kReadWrite);
    cache::LineRef line = CacheBlock(100, pte);
    line.set_block_dirty(true);  // Modified block, page recorded clean.

    // SPUR's notion of "recorded" is the hardware D bit...
    context_.dirty = DirtyPolicyKind::kSpur;
    EXPECT_EQ(Fires(kPassCachePteDirty, CheckCacheDirtyCoherence), 1u);
    // ...FAULT's is the software dirty bit, so D alone does not help...
    context_.dirty = DirtyPolicyKind::kFault;
    EXPECT_EQ(Fires(kPassCachePteDirty, CheckCacheDirtyCoherence), 1u);
    pte.set_dirty(true);
    EXPECT_EQ(Fires(kPassCachePteDirty, CheckCacheDirtyCoherence), 1u);
    // ...but the software bit does.
    pte.set_soft_dirty(true);
    EXPECT_EQ(Fires(kPassCachePteDirty, CheckCacheDirtyCoherence), 0u);
}

TEST_F(PassTest, ProtectionEmulationFiresOnWritableCleanPage)
{
    pt::Pte& pte = MakeResident(100, Protection::kReadWrite);
    pte.set_writable_intent(true);  // Writable by intent, still clean.

    // Under a hardware-dirty-bit policy this state is legal...
    context_.dirty = DirtyPolicyKind::kSpur;
    EXPECT_EQ(Fires(kPassProtectionEmulation, CheckProtectionEmulation), 0u);
    // ...under the emulating policies the first write would be missed.
    for (const DirtyPolicyKind kind :
         {DirtyPolicyKind::kFault, DirtyPolicyKind::kFlush,
          DirtyPolicyKind::kSpurProt}) {
        context_.dirty = kind;
        EXPECT_EQ(Fires(kPassProtectionEmulation, CheckProtectionEmulation), 1u)
            << policy::ToString(kind);
    }

    // The emulation contract: clean writable pages are mapped read-only.
    context_.dirty = DirtyPolicyKind::kFault;
    pte.set_protection(Protection::kReadOnly);
    EXPECT_EQ(Fires(kPassProtectionEmulation, CheckProtectionEmulation), 0u);
    // Taking the dirty fault upgrades protection and sets the soft bit.
    pte.set_soft_dirty(true);
    pte.set_protection(Protection::kReadWrite);
    EXPECT_EQ(Fires(kPassProtectionEmulation, CheckProtectionEmulation), 0u);
}

TEST_F(PassTest, ProtectionEmulationFiresOnStaleCachedProtection)
{
    context_.dirty = DirtyPolicyKind::kFlush;
    pt::Pte& pte = MakeResident(100, Protection::kReadOnly);
    pte.set_writable_intent(true);
    CacheBlock(100, pte);
    EXPECT_EQ(Fires(kPassProtectionEmulation, CheckProtectionEmulation), 0u);

    // A cached read-write PR while the PTE still says read-only means a
    // write would hit without faulting — the emulation's blind spot.
    vcache_.Lookup(AddrOf(100)).set_prot(Protection::kReadWrite);
    EXPECT_EQ(Fires(kPassProtectionEmulation, CheckProtectionEmulation), 1u);
}

TEST_F(PassTest, FrameTableFiresOnBoundFrameWithoutValidPte)
{
    const FrameNum frame = frames_.Allocate();
    frames_.Bind(frame, 300);  // Page 300 never got a valid PTE.
    table_.Ensure(300);        // Materialized but invalid.
    EXPECT_GE(Fires(kPassFrameTable, CheckFrameResidency), 1u);
}

TEST_F(PassTest, FrameTableFiresOnPfnMismatch)
{
    pt::Pte& pte = MakeResident(100);
    EXPECT_EQ(Fires(kPassFrameTable, CheckFrameResidency), 0u);
    pte.set_pfn(pte.pfn() + 1);  // PTE now points at the wrong frame.
    EXPECT_GE(Fires(kPassFrameTable, CheckFrameResidency), 1u);
}

TEST_F(PassTest, FrameTableFiresOnOutOfRangePfn)
{
    pt::Pte& pte = table_.Ensure(500);
    pte.set_valid(true);
    pte.set_pfn(4000);  // Far beyond the 32-frame machine.
    EXPECT_EQ(Fires(kPassFrameTable, CheckFrameResidency), 1u);
}

TEST_F(PassTest, FrameTableFiresOnDoubleBinding)
{
    MakeResident(100);
    const FrameNum second = frames_.Allocate();
    frames_.Bind(second, 100);  // Two frames now claim page 100.
    EXPECT_GE(Fires(kPassFrameTable, CheckFrameResidency), 1u);
}

TEST_F(PassTest, FrameFreeListFiresOnInjectedCorruption)
{
    using Access = mem::FrameTableTestAccess;
    EXPECT_EQ(Fires(kPassFrameFreeList, CheckFrameFreeList), 0u);

    // Leaked: silently drop a frame from the free list — now neither
    // free nor allocated.
    Access::FreeList(frames_).pop_back();
    EXPECT_EQ(Fires(kPassFrameFreeList, CheckFrameFreeList), 1u);
}

TEST_F(PassTest, FrameFreeListFiresOnEachCorruptionKind)
{
    using Access = mem::FrameTableTestAccess;

    {
        mem::FrameTable frames(32, 2);
        AuditContext context = context_;
        context.frames = &frames;
        // Free frame marked allocated: "both free and allocated".
        Access::SetAllocated(frames, Access::FreeList(frames).back(), true);
        EXPECT_EQ(CountFires(kPassFrameFreeList, CheckFrameFreeList, context),
                  1u);
    }
    {
        mem::FrameTable frames(32, 2);
        AuditContext context = context_;
        context.frames = &frames;
        // Free frame still bound to a page.
        Access::SetVpn(frames, Access::FreeList(frames).back(), 42);
        EXPECT_EQ(CountFires(kPassFrameFreeList, CheckFrameFreeList, context),
                  1u);
    }
    {
        mem::FrameTable frames(32, 2);
        AuditContext context = context_;
        context.frames = &frames;
        // The same frame listed free twice.
        Access::FreeList(frames).push_back(
            Access::FreeList(frames).front());
        EXPECT_EQ(CountFires(kPassFrameFreeList, CheckFrameFreeList, context),
                  1u);
    }
    {
        mem::FrameTable frames(32, 2);
        AuditContext context = context_;
        context.frames = &frames;
        // An out-of-range frame number on the free list.
        Access::FreeList(frames).push_back(999);
        EXPECT_EQ(CountFires(kPassFrameFreeList, CheckFrameFreeList, context),
                  1u);
    }
}

TEST_F(PassTest, BackingStoreFiresOnCounterMismatch)
{
    // Healthy: event counters and the store's I/O counters move together.
    store_.PageOut(100);
    events_.Add(sim::Event::kPageOutDirty);
    store_.PageIn(100);
    events_.Add(sim::Event::kPageIn);
    EXPECT_EQ(Fires(kPassBackingStore, CheckBackingStoreCounts), 0u);

    // A page-in event with no corresponding store read.
    events_.Add(sim::Event::kPageIn);
    EXPECT_EQ(Fires(kPassBackingStore, CheckBackingStoreCounts), 1u);

    // Both directions wrong: two violations.
    events_.Add(sim::Event::kPageOutDirty);
    EXPECT_EQ(Fires(kPassBackingStore, CheckBackingStoreCounts), 2u);
}

TEST_F(PassTest, RefFlushFiresOnResidentBlockOfClearedPage)
{
    context_.ref = RefPolicyKind::kRef;
    pt::Pte& pte = MakeResident(100);
    CacheBlock(100, pte);
    // R is set: fine.
    EXPECT_EQ(Fires(kPassRefFlush, CheckRefFlushHygiene), 0u);

    // Clearing R without flushing breaks REF's contract (Section 4): the
    // next reference would hit in the cache and never re-set the bit.
    pte.set_referenced(false);
    EXPECT_EQ(Fires(kPassRefFlush, CheckRefFlushHygiene), 1u);

    // MISS and NOREF make no flush promise, so the pass stays silent.
    context_.ref = RefPolicyKind::kMiss;
    EXPECT_EQ(Fires(kPassRefFlush, CheckRefFlushHygiene), 0u);
    context_.ref = RefPolicyKind::kNoRef;
    EXPECT_EQ(Fires(kPassRefFlush, CheckRefFlushHygiene), 0u);
}

TEST_F(PassTest, MpCoherencyFiresOnOwnershipViolations)
{
    cache::VirtualCache peer(config_);
    context_.caches = {&vcache_, &peer};

    pt::Pte& pte = MakeResident(100, Protection::kReadWrite);

    // Two clean shared copies: legal.
    CacheBlock(100, pte);
    peer.Fill(AddrOf(100), pte.protection(), pte.dirty(), nullptr);
    EXPECT_EQ(Fires(kPassMpCoherency, CheckMpCoherency), 0u);

    // An exclusive owner with a peer copy still resident: one violation
    // (the peer copy is clean, so there is one owner but a stale sharer).
    cache::VirtualCache::MarkWritten(vcache_.Lookup(AddrOf(100)));
    pte.set_dirty(true);
    EXPECT_EQ(Fires(kPassMpCoherency, CheckMpCoherency), 1u);

    // Both caches claiming ownership: two owners AND exclusive-with-peers.
    cache::VirtualCache::MarkWritten(peer.Lookup(AddrOf(100)));
    EXPECT_GE(Fires(kPassMpCoherency, CheckMpCoherency), 2u);
}

TEST_F(PassTest, MpCoherencyFiresOnDirtyBlockWithoutOwner)
{
    // Model invariant M3 (src/model/invariants.h): modified data must
    // sit with an owner, or the bus never writes it back.  The model
    // checker proves the protocol cannot reach this state; the runtime
    // pass guards the same line against implementation bugs.
    cache::VirtualCache peer(config_);
    context_.caches = {&vcache_, &peer};

    pt::Pte& pte = MakeResident(100, Protection::kReadWrite);
    pte.set_dirty(true);
    cache::LineRef line = CacheBlock(100, pte);
    EXPECT_EQ(Fires(kPassMpCoherency, CheckMpCoherency), 0u);

    // Corrupt: dirty data in an UnOwned copy.
    line.set_block_dirty(true);
    EXPECT_EQ(Fires(kPassMpCoherency, CheckMpCoherency), 1u);
}

TEST_F(PassTest, MpCoherencySkipsUniprocessors)
{
    pt::Pte& pte = MakeResident(100, Protection::kReadWrite);
    pte.set_dirty(true);
    cache::VirtualCache::MarkWritten(CacheBlock(100, pte));
    // A lone cache is trivially coherent — even "exclusive" states.
    EXPECT_EQ(Fires(kPassMpCoherency, CheckMpCoherency), 0u);
}

// ---------------------------------------------------------------------------
// The pass sequence and report plumbing.
// ---------------------------------------------------------------------------

TEST(RunAllPassesTest, KernelAuditRunsEveryPassInOrder)
{
    core::SpurSystem system(sim::MachineConfig::Prototype(8),
                            DirtyPolicyKind::kSpur, RefPolicyKind::kMiss);
    const AuditReport report = system.kernel().Audit();
    EXPECT_EQ(report.passes(), kAllPasses);
    EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AuditReportTest, WarningsAloneDoNotFailAReport)
{
    AuditReport report;
    report.BeginPass("first");
    report.Add(Severity::kWarning, "P", kNoPage, "saw it");
    report.BeginPass("second");
    EXPECT_EQ(report.passes(),
              (std::vector<std::string>{"first", "second"}));
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.NumWarnings(), 1u);
    EXPECT_EQ(report.CountFor("first"), 1u);
    EXPECT_EQ(report.CountFor("second"), 0u);
}

TEST(AuditReportTest, SummaryNamesInvariantPolicyAndPage)
{
    AuditReport report;
    report.BeginPass("cache-pte-dirty");
    report.Add(Severity::kError, "FAULT/MISS", 123, "P ahead of D");
    const std::string summary = report.Summary();
    EXPECT_NE(summary.find("cache-pte-dirty"), std::string::npos);
    EXPECT_NE(summary.find("FAULT/MISS"), std::string::npos);
    EXPECT_NE(summary.find("0x7b"), std::string::npos);  // Page 123 in hex.
    EXPECT_NE(summary.find("P ahead of D"), std::string::npos);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.NumErrors(), 1u);
}

// ---------------------------------------------------------------------------
// Cross-policy dominance audits (fabricated matrices).
// ---------------------------------------------------------------------------

core::RunConfig
Cell(DirtyPolicyKind dirty, RefPolicyKind ref, uint64_t seed = 1)
{
    core::RunConfig config;
    config.workload = core::WorkloadId::kSlc;
    config.memory_mb = 6;
    config.dirty = dirty;
    config.ref = ref;
    config.refs = 1000;
    config.seed = seed;
    return config;
}

core::RunResult
Result(uint64_t dirty_faults, uint64_t zfod, uint64_t page_ins)
{
    core::RunResult result;
    result.events.Add(sim::Event::kDirtyFault, dirty_faults);
    result.events.Add(sim::Event::kDirtyFaultZfod, zfod);
    result.page_ins = page_ins;
    return result;
}

TEST(DominanceTest, IntrinsicFaultsExcludeZeroFill)
{
    EXPECT_EQ(IntrinsicDirtyFaults(Result(10, 6, 0)), 4u);
}

TEST(DominanceTest, SilentWhenMinIsALowerBound)
{
    const std::vector<core::RunConfig> configs = {
        Cell(DirtyPolicyKind::kMin, RefPolicyKind::kMiss),
        Cell(DirtyPolicyKind::kSpur, RefPolicyKind::kMiss),
    };
    const std::vector<std::vector<core::RunResult>> results = {
        {Result(5, 0, 100)},
        {Result(7, 0, 100)},
    };
    const AuditReport report = AuditDominance(configs, results);
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.violations().empty()) << report.Summary();
}

TEST(DominanceTest, FiresWhenMinExceedsAnAlternative)
{
    const std::vector<core::RunConfig> configs = {
        Cell(DirtyPolicyKind::kMin, RefPolicyKind::kMiss),
        Cell(DirtyPolicyKind::kFault, RefPolicyKind::kMiss),
    };
    const std::vector<std::vector<core::RunResult>> results = {
        {Result(9, 0, 100)},
        {Result(7, 0, 100)},
    };
    const AuditReport report = AuditDominance(configs, results);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.CountFor(kPassMinDominance), 1u);
}

TEST(DominanceTest, FlushMissPagingDifferentlyIsAWarning)
{
    // FLUSH's flushes make later references miss, and under MISS those
    // misses set reference bits, so the page daemon can page
    // differently from MIN and leave FLUSH fewer intrinsic faults
    // (flush-storm at 5 MB: 13,672 against MIN's 13,758).
    const std::vector<core::RunConfig> flush_miss = {
        Cell(DirtyPolicyKind::kMin, RefPolicyKind::kMiss),
        Cell(DirtyPolicyKind::kFlush, RefPolicyKind::kMiss),
    };
    const AuditReport warned = AuditDominance(
        flush_miss, {{Result(9, 0, 100)}, {Result(7, 0, 98)}});
    EXPECT_TRUE(warned.ok()) << warned.Summary();
    EXPECT_EQ(warned.NumWarnings(), 1u);
    EXPECT_EQ(warned.CountFor(kPassMinDominance), 1u);
    EXPECT_NE(warned.Summary().find("100"), std::string::npos);
    EXPECT_NE(warned.Summary().find("98"), std::string::npos);

    // With the same page-ins the bound holds and a violation is an error.
    EXPECT_FALSE(AuditDominance(flush_miss,
                                {{Result(9, 0, 100)}, {Result(7, 0, 100)}})
                     .ok());

    // Any other pair stays an error, whatever its page-ins.
    for (const auto& [dirty, ref] :
         {std::pair{DirtyPolicyKind::kFlush, RefPolicyKind::kRef},
          std::pair{DirtyPolicyKind::kFlush, RefPolicyKind::kNoRef},
          std::pair{DirtyPolicyKind::kFault, RefPolicyKind::kMiss},
          std::pair{DirtyPolicyKind::kSpur, RefPolicyKind::kMiss}}) {
        SCOPED_TRACE(std::string(policy::ToString(dirty)) + "/" +
                     policy::ToString(ref));
        const AuditReport report = AuditDominance(
            {Cell(DirtyPolicyKind::kMin, ref), Cell(dirty, ref)},
            {{Result(9, 0, 100)}, {Result(7, 0, 98)}});
        EXPECT_FALSE(report.ok());
        EXPECT_EQ(report.NumErrors(), 1u);
    }
}

TEST(DominanceTest, ComparesIntrinsicNotRawFaultCounts)
{
    // MIN's raw count is higher, but its zero-fill subset is excluded
    // (Section 3.2's N_zfod), so the comparison still holds.
    const std::vector<core::RunConfig> configs = {
        Cell(DirtyPolicyKind::kMin, RefPolicyKind::kMiss),
        Cell(DirtyPolicyKind::kSpur, RefPolicyKind::kMiss),
    };
    const std::vector<std::vector<core::RunResult>> results = {
        {Result(10, 6, 100)},  // Intrinsic: 4.
        {Result(5, 0, 100)},   // Intrinsic: 5.
    };
    EXPECT_TRUE(AuditDominance(configs, results).ok());
}

TEST(DominanceTest, SkipsCellsWithoutAMatchedPartner)
{
    // Different seeds: not the same cell, so no comparison is made even
    // though the counts would violate dominance.
    const std::vector<core::RunConfig> configs = {
        Cell(DirtyPolicyKind::kMin, RefPolicyKind::kMiss, /*seed=*/1),
        Cell(DirtyPolicyKind::kSpur, RefPolicyKind::kMiss, /*seed=*/2),
    };
    const std::vector<std::vector<core::RunResult>> results = {
        {Result(9, 0, 100)},
        {Result(7, 0, 100)},
    };
    EXPECT_TRUE(AuditDominance(configs, results).violations().empty());
}

TEST(DominanceTest, NorefBelowMissIsAWarningNotAnError)
{
    const std::vector<core::RunConfig> configs = {
        Cell(DirtyPolicyKind::kSpur, RefPolicyKind::kMiss),
        Cell(DirtyPolicyKind::kSpur, RefPolicyKind::kNoRef),
    };
    const std::vector<std::vector<core::RunResult>> results = {
        {Result(0, 0, 200)},
        {Result(0, 0, 150)},  // NOREF paging in *less* than MISS.
    };
    const AuditReport report = AuditDominance(configs, results);
    EXPECT_TRUE(report.ok());  // Warning severity: does not fail.
    EXPECT_EQ(report.NumWarnings(), 1u);
    EXPECT_EQ(report.CountFor(kPassNorefPageIns), 1u);

    // The expected direction is silent.
    const std::vector<std::vector<core::RunResult>> expected = {
        {Result(0, 0, 200)},
        {Result(0, 0, 260)},
    };
    EXPECT_TRUE(AuditDominance(configs, expected).violations().empty());
}

// ---------------------------------------------------------------------------
// Full-system integration: healthy machines audit clean under every
// policy pair, uniprocessor and multiprocessor.
// ---------------------------------------------------------------------------

class SystemAuditTest
    : public testing::TestWithParam<
          std::tuple<DirtyPolicyKind, RefPolicyKind>>
{
};

TEST_P(SystemAuditTest, RandomWorkloadAuditsClean)
{
    const auto [dirty, ref] = GetParam();
    sim::MachineConfig config = sim::MachineConfig::Prototype(5);
    core::SpurSystem system(config, dirty, ref);
    Rng rng(static_cast<uint64_t>(dirty) * 131 +
            static_cast<uint64_t>(ref) * 17 + 5);

    const Pid pid = system.CreateProcess();
    const uint64_t page = config.page_bytes;
    system.MapRegion(pid, kHeapBase, 512 * page, vm::PageKind::kHeap);

    for (int op = 0; op < 30'000; ++op) {
        const ProcessAddr addr =
            kHeapBase + static_cast<ProcessAddr>(
                            rng.NextBelow(512) * page +
                            rng.NextBelow(128) * 32);
        const double kind = rng.NextDouble();
        system.Access(pid, addr,
                      kind < 0.3 ? AccessType::kWrite : AccessType::kRead);
        if (op % 10'000 == 9'999) {
            const AuditReport report = system.kernel().Audit();
            ASSERT_TRUE(report.ok()) << report.Summary();
            ASSERT_TRUE(report.violations().empty()) << report.Summary();
        }
    }
    const AuditReport report = system.kernel().Audit();
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_TRUE(report.violations().empty()) << report.Summary();
    EXPECT_EQ(report.passes(), kAllPasses);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SystemAuditTest,
    testing::Combine(testing::Values(DirtyPolicyKind::kMin,
                                     DirtyPolicyKind::kFault,
                                     DirtyPolicyKind::kFlush,
                                     DirtyPolicyKind::kSpur,
                                     DirtyPolicyKind::kWrite,
                                     DirtyPolicyKind::kSpurProt,
                                     DirtyPolicyKind::kWriteHw),
                     testing::Values(RefPolicyKind::kMiss,
                                     RefPolicyKind::kRef,
                                     RefPolicyKind::kNoRef)),
    [](const testing::TestParamInfo<SystemAuditTest::ParamType>& info) {
        std::string name = policy::ToString(std::get<0>(info.param));
        name += '_';
        name += policy::ToString(std::get<1>(info.param));
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(FinishRunDeathTest, AbortsOnAnInjectedViolation)
{
    // FrameTableFiresOnPfnMismatch's corruption, on a machine that ran:
    // one resident page's PTE points at the wrong frame.
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::SpurSystem system(config, DirtyPolicyKind::kSpur,
                            RefPolicyKind::kMiss);
    const Pid pid = system.CreateProcess();
    system.MapRegion(pid, kHeapBase, 4 * config.page_bytes,
                     vm::PageKind::kHeap);
    system.Access(pid, kHeapBase, AccessType::kWrite);
    EXPECT_EQ(core::FinishRun(system.kernel(), 1).refs_issued, 1u);

    pt::PageTable& table = system.kernel().page_table();
    GlobalVpn resident = 0;
    table.ForEachPte([&](GlobalVpn vpn, const pt::Pte& pte) {
        if (pte.valid()) {
            resident = vpn;
        }
    });
    pt::Pte& pte = table.Ensure(resident);
    ASSERT_TRUE(pte.valid());
    pte.set_pfn(pte.pfn() + 1);
    EXPECT_GE(system.kernel().Audit().CountFor(kPassFrameTable), 1u);
    EXPECT_DEATH(core::FinishRun(system.kernel(), 1),
                 "audit failed at core::FinishRun: audit: [0-9]+ passes, "
                 "[1-9][0-9]* errors");
}

TEST(MpSystemAuditTest, MultiprocessorWorkloadAuditsClean)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::MpSpurSystem system(config, /*num_cpus=*/4,
                              DirtyPolicyKind::kSpur, RefPolicyKind::kMiss);
    Rng rng(97);

    const Pid pid = system.kernel().CreateProcess();
    const uint64_t page = config.page_bytes;
    system.kernel().MapRegion(pid, kHeapBase, 256 * page,
                              vm::PageKind::kHeap);

    for (int op = 0; op < 40'000; ++op) {
        const auto cpu = static_cast<unsigned>(rng.NextBelow(4));
        const ProcessAddr addr =
            kHeapBase + static_cast<ProcessAddr>(
                            rng.NextBelow(256) * page +
                            rng.NextBelow(128) * 32);
        const double kind = rng.NextDouble();
        system.Access(cpu, MemRef{pid, addr,
                                  kind < 0.3 ? AccessType::kWrite
                                             : AccessType::kRead});
        if (op % 10'000 == 9'999) {
            const AuditReport report = system.kernel().Audit();
            ASSERT_TRUE(report.ok()) << report.Summary();
        }
    }
    const AuditReport report = system.kernel().Audit();
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_TRUE(report.violations().empty()) << report.Summary();
}

TEST(MpSystemAuditTest, SharedSegmentWorkersAuditClean)
{
    // ablation_mp_refbits's shape: one worker per CPU with a private
    // heap, segment 3 shared with CPU 0's worker, and a cold scan on
    // CPU 0 that keeps the page daemon clearing reference bits (under
    // REF, each clear flushes the page from every cache).
    for (const unsigned cpus : {1u, 8u}) {
        for (const RefPolicyKind ref :
             {RefPolicyKind::kMiss, RefPolicyKind::kRef}) {
            SCOPED_TRACE(std::to_string(cpus) + " CPUs, " +
                         policy::ToString(ref));
            const sim::MachineConfig config =
                sim::MachineConfig::Prototype(8);
            core::MpSpurSystem system(config, cpus, DirtyPolicyKind::kSpur,
                                      ref);
            core::Kernel& kernel = system.kernel();
            const uint64_t page = config.page_bytes;
            std::vector<Pid> pids(cpus);
            for (unsigned cpu = 0; cpu < cpus; ++cpu) {
                pids[cpu] = kernel.CreateProcess();
                kernel.MapRegion(pids[cpu], kHeapBase, 420 * page,
                                 vm::PageKind::kHeap);
                if (cpu == 0) {
                    kernel.MapRegion(pids[0], workload::kStackBase,
                                     96 * page, vm::PageKind::kHeap);
                } else {
                    kernel.ShareSegment(pids[cpu], 3, pids[0], 3);
                }
            }
            const uint64_t filler_pages = config.NumFrames() + 256;
            kernel.MapRegion(pids[0], workload::kDataBase,
                             filler_pages * page, vm::PageKind::kHeap);

            Rng rng(21);
            for (uint64_t i = 0; i < 3 * 24 * filler_pages; ++i) {
                if (i % 24 == 0) {
                    system.Access(
                        0, MemRef{pids[0],
                                  static_cast<ProcessAddr>(
                                      workload::kDataBase +
                                      (i / 24 % filler_pages) * page),
                                  AccessType::kRead});
                }
                for (unsigned cpu = 0; cpu < cpus; ++cpu) {
                    const bool shared = rng.Chance(0.25);
                    const ProcessAddr base =
                        shared ? workload::kStackBase : kHeapBase;
                    const uint32_t pages = shared ? 96 : 180;
                    const ProcessAddr addr =
                        base + static_cast<ProcessAddr>(
                                   rng.NextZipf(pages, 0.85) * page +
                                   rng.NextBelow(128) * 32);
                    system.Access(cpu,
                                  MemRef{pids[cpu], addr,
                                         rng.Chance(0.10)
                                             ? AccessType::kWrite
                                             : AccessType::kRead});
                }
                if (i % 10'000 == 9'999) {
                    const AuditReport report = kernel.Audit();
                    ASSERT_TRUE(report.ok()) << "after " << i + 1
                                             << " steps: "
                                             << report.Summary();
                }
            }
            const AuditReport report = kernel.Audit();
            EXPECT_TRUE(report.ok()) << report.Summary();
            EXPECT_GT(kernel.events().Get(sim::Event::kRefClear), 0u);
            EXPECT_GT(kernel.events().Get(sim::Event::kPageIn), 0u);
        }
    }
}

}  // namespace
}  // namespace spur::check
