/**
 * @file
 * Tests for the five dirty-bit policies and three reference-bit policies:
 * the exact fault/miss/check semantics of Section 3 and 4, including the
 * fast paths, cost charging and event classification.
 */
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/cache/cache.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/policy_ops.h"
#include "src/policy/ref_policy.h"
#include "src/pt/pte.h"
#include "src/sim/config.h"
#include "src/sim/events.h"

namespace spur::policy {
namespace {

/**
 * A machine's pieces the policy ops act on, and the ops of a policy
 * named at run time, reached through Dispatch() as the access path
 * reaches them.
 */
class OpsHarness
{
  protected:
    OpsHarness() : config_(sim::MachineConfig::Prototype(8)), vcache_(config_)
    {
    }

    DirtyCost WriteHit(DirtyPolicyKind kind, cache::LineRef line,
                       GlobalAddr addr, pt::Pte& pte)
    {
        return Dispatch(kind, [&]<DirtyPolicyKind K>() {
            return DirtyOps<K>::OnWriteHit(line, addr, pte, events_, vcache_,
                                           config_);
        });
    }

    DirtyCost WriteMiss(DirtyPolicyKind kind, GlobalAddr addr, pt::Pte& pte)
    {
        return Dispatch(kind, [&]<DirtyPolicyKind K>() {
            return DirtyOps<K>::OnWriteMiss(addr, pte, events_, vcache_,
                                            config_);
        });
    }

    static bool WriteHitFastPath(DirtyPolicyKind kind,
                                 cache::ConstLineRef line)
    {
        return Dispatch(kind, [&]<DirtyPolicyKind K>() {
            return DirtyOps<K>::WriteHitFastPath(line);
        });
    }

    RefCost CacheMiss(RefPolicyKind kind, pt::Pte& pte)
    {
        return Dispatch(kind, [&]<RefPolicyKind K>() {
            return RefOps<K>::OnCacheMiss(pte, events_, config_);
        });
    }

    sim::MachineConfig config_;
    cache::VirtualCache vcache_;
    sim::EventCounts events_;
};

class DirtyPolicyTest : public testing::TestWithParam<DirtyPolicyKind>,
                        public OpsHarness
{
  protected:
    DirtyPolicyTest() : policy_(MakeDirtyPolicy(GetParam())) {}

    /** A clean writable page's PTE as the VM would install it. */
    pt::Pte CleanWritablePte() const
    {
        pt::Pte pte;
        pte.set_valid(true);
        pte.set_writable_intent(true);
        pte.set_protection(policy_->ResidentProtection(true));
        return pte;
    }

    /** A line filled from @p pte (the Fill copy semantics). */
    cache::Line LineFrom(const pt::Pte& pte) const
    {
        cache::Line line;
        line.prot = pte.protection();
        line.page_dirty = pte.dirty();
        line.state = cache::CoherencyState::kUnOwned;
        return line;
    }

    std::unique_ptr<DirtyPolicy> policy_;
};

TEST_P(DirtyPolicyTest, KindRoundTrips)
{
    EXPECT_EQ(policy_->kind(), GetParam());
    EXPECT_EQ(ParseDirtyPolicy(ToString(GetParam())), GetParam());
}

TEST_P(DirtyPolicyTest, FirstWriteMissIsExactlyOneNecessaryFault)
{
    pt::Pte pte = CleanWritablePte();
    const DirtyCost cost = WriteMiss(GetParam(), 0x1000, pte);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(cost.fault_cycles, config_.t_fault);
    EXPECT_TRUE(policy_->IsPageDirty(pte));
    // A second write miss to the now-dirty page is free.
    const DirtyCost again = WriteMiss(GetParam(), 0x1020, pte);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(again.fault_cycles, 0u);
}

TEST_P(DirtyPolicyTest, ZeroFillFaultsAreClassified)
{
    pt::Pte pte = CleanWritablePte();
    pte.set_zfod_clean(true);
    WriteMiss(GetParam(), 0x1000, pte);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyFaultZfod), 1u);
    EXPECT_FALSE(pte.zfod_clean());  // Marker consumed.
}

TEST_P(DirtyPolicyTest, FastPathHoldsAfterPageDirtyAndBlockWritten)
{
    // Once the page is dirty and the line refreshed, subsequent writes to
    // the same block take the hardware fast path under every policy.
    pt::Pte pte = CleanWritablePte();
    cache::LineBuf line(LineFrom(pte));
    WriteHit(GetParam(), line.ref(), 0x1000, pte);
    if (policy_->kind() == DirtyPolicyKind::kFlush) {
        // FLUSH invalidated the line; refill from the updated PTE.
        line = cache::LineBuf(LineFrom(pte));
    }
    cache::VirtualCache::MarkWritten(line.ref());
    EXPECT_TRUE(WriteHitFastPath(GetParam(), line.cref()));
}

TEST_P(DirtyPolicyTest, DirtyPageFillsTakeTheFastPathImmediately)
{
    // Blocks brought in *after* the page became dirty carry the dirty
    // state (or read-write protection) and never trip the policy. The
    // WRITE policy is the exception: it checks once per block regardless.
    pt::Pte pte = CleanWritablePte();
    WriteMiss(GetParam(), 0x1000, pte);  // Dirties the page.
    cache::LineBuf line(LineFrom(pte));
    if (policy_->kind() == DirtyPolicyKind::kWrite) {
        EXPECT_FALSE(WriteHitFastPath(GetParam(), line.cref()));
    } else {
        EXPECT_TRUE(WriteHitFastPath(GetParam(), line.cref()));
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DirtyPolicyTest,
                         testing::Values(DirtyPolicyKind::kMin,
                                         DirtyPolicyKind::kFault,
                                         DirtyPolicyKind::kFlush,
                                         DirtyPolicyKind::kSpur,
                                         DirtyPolicyKind::kWrite),
                         [](const auto& info) {
                             return ToString(info.param);
                         });

/**
 * Checks DirtyOps<K>::kSettledWrite against its definition on all 256
 * metadata bytes: a line is settled when it is already marked written
 * (B set, CS OwnedExclusive) and WriteHitFastPath holds.
 */
template <DirtyPolicyKind K>
void
ExpectSettledPatternOnEveryByte()
{
    for (unsigned byte = 0; byte < 256; ++byte) {
        const uint64_t tag = 0;
        const uint8_t m = static_cast<uint8_t>(byte);
        const cache::ConstLineRef line(&tag, &m);
        const bool settled =
            DirtyOps<K>::WriteHitFastPath(line) && line.block_dirty() &&
            line.state() == cache::CoherencyState::kOwnedExclusive;
        EXPECT_EQ(DirtyOps<K>::kSettledWrite.Matches(m), settled)
            << ToString(K) << " meta byte " << byte;
        if (byte < 64) {
            EXPECT_EQ((DirtyOps<K>::kSettledWrite.Bytes() >> byte) & 1,
                      uint64_t{settled})
                << ToString(K) << " byte map, meta byte " << byte;
        }
    }
}

TEST(DirtyOpsTest, SettledWritePatternMatchesTheFastPathOnEveryByte)
{
    ExpectSettledPatternOnEveryByte<DirtyPolicyKind::kMin>();
    ExpectSettledPatternOnEveryByte<DirtyPolicyKind::kFault>();
    ExpectSettledPatternOnEveryByte<DirtyPolicyKind::kFlush>();
    ExpectSettledPatternOnEveryByte<DirtyPolicyKind::kSpur>();
    ExpectSettledPatternOnEveryByte<DirtyPolicyKind::kWrite>();
    ExpectSettledPatternOnEveryByte<DirtyPolicyKind::kSpurProt>();
    ExpectSettledPatternOnEveryByte<DirtyPolicyKind::kWriteHw>();
}

// ---------------------------------------------------------------------------
// Policy-specific semantics.
// ---------------------------------------------------------------------------

class PolicyFixture : public testing::Test, public OpsHarness
{
};

TEST_F(PolicyFixture, FaultInitialProtectionIsReadOnly)
{
    auto policy = MakeDirtyPolicy(DirtyPolicyKind::kFault);
    EXPECT_EQ(policy->ResidentProtection(true), Protection::kReadOnly);
    auto spur = MakeDirtyPolicy(DirtyPolicyKind::kSpur);
    EXPECT_EQ(spur->ResidentProtection(true), Protection::kReadWrite);
}

TEST_F(PolicyFixture, FaultExcessFaultOnStaleLine)
{
    const DirtyPolicyKind kind = DirtyPolicyKind::kFault;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadOnly);

    // Two blocks cached while the page was read-only.
    cache::LineBuf line_a(cache::Line{0, Protection::kReadOnly,
                                      cache::CoherencyState::kUnOwned,
                                      false, false});
    cache::LineBuf line_b = line_a;

    const DirtyCost first = WriteHit(kind, line_a.ref(), 0x0, pte);
    EXPECT_EQ(first.fault_cycles, config_.t_fault);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(events_.Get(sim::Event::kExcessFault), 0u);
    EXPECT_EQ(pte.protection(), Protection::kReadWrite);
    // Handler refreshed.
    EXPECT_EQ(line_a.Get().prot, Protection::kReadWrite);

    // The second previously cached block still faults: the excess fault.
    const DirtyCost second = WriteHit(kind, line_b.ref(), 0x20, pte);
    EXPECT_EQ(second.fault_cycles, config_.t_fault);
    EXPECT_EQ(events_.Get(sim::Event::kExcessFault), 1u);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyFault), 1u);  // Unchanged.
}

TEST_F(PolicyFixture, FaultUsesSoftwareDirtyBit)
{
    const DirtyPolicyKind kind = DirtyPolicyKind::kFault;
    const auto policy = MakeDirtyPolicy(kind);
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadOnly);
    EXPECT_FALSE(policy->IsPageDirty(pte));
    WriteMiss(kind, 0x0, pte);
    EXPECT_TRUE(pte.soft_dirty());
    EXPECT_FALSE(pte.dirty());  // The hardware D bit is not used.
    EXPECT_TRUE(policy->IsPageDirty(pte));
}

TEST_F(PolicyFixture, FlushPreventsExcessFaults)
{
    const DirtyPolicyKind kind = DirtyPolicyKind::kFlush;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadOnly);

    // Cache two blocks of the page (read-only copies).
    const GlobalAddr page = 0x10000;
    vcache_.Fill(page, Protection::kReadOnly, false, nullptr);
    vcache_.Fill(page + 32, Protection::kReadOnly, false, nullptr);
    cache::LineRef line_a = vcache_.Lookup(page);
    ASSERT_TRUE(line_a);

    const DirtyCost cost = WriteHit(kind, line_a, page, pte);
    EXPECT_EQ(cost.fault_cycles, config_.t_fault);
    EXPECT_EQ(cost.flush_cycles, config_.t_flush_page);
    EXPECT_TRUE(cost.line_invalidated);
    // Every block of the page is gone: no stale copies can remain.
    EXPECT_FALSE(vcache_.Lookup(page));
    EXPECT_FALSE(vcache_.Lookup(page + 32));
    EXPECT_EQ(events_.Get(sim::Event::kExcessFault), 0u);
}

TEST_F(PolicyFixture, FlushOnWriteMissAlsoFlushes)
{
    const DirtyPolicyKind kind = DirtyPolicyKind::kFlush;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadOnly);
    const GlobalAddr page = 0x20000;
    vcache_.Fill(page + 64, Protection::kReadOnly, false, nullptr);
    const DirtyCost cost = WriteMiss(kind, page, pte);
    EXPECT_EQ(cost.flush_cycles, config_.t_flush_page);
    EXPECT_FALSE(vcache_.Lookup(page + 64));
}

TEST_F(PolicyFixture, SpurDirtyBitMissRefreshesStaleCopy)
{
    const DirtyPolicyKind kind = DirtyPolicyKind::kSpur;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadWrite);
    pte.set_dirty(true);  // Page already dirty...

    // ...but this copy is stale.
    cache::LineBuf line(cache::Line{0, Protection::kReadWrite,
                                    cache::CoherencyState::kUnOwned,
                                    /*page_dirty=*/false,
                                    /*block_dirty=*/false});

    const DirtyCost cost = WriteHit(kind, line.ref(), 0x0, pte);
    EXPECT_EQ(cost.fault_cycles, 0u);
    EXPECT_EQ(cost.aux_cycles, config_.t_dirty_miss);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyBitMiss), 1u);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyFault), 0u);
    EXPECT_TRUE(line.Get().page_dirty);
}

TEST_F(PolicyFixture, SpurNecessaryFaultCostsFaultPlusDirtyMiss)
{
    // O(SPUR) charges t_ds + t_dm per necessary fault: the fault plus the
    // forced miss that refreshes the cached copy.
    const DirtyPolicyKind kind = DirtyPolicyKind::kSpur;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadWrite);
    cache::LineBuf line(cache::Line{0, Protection::kReadWrite,
                                    cache::CoherencyState::kUnOwned,
                                    false, false});
    const DirtyCost cost = WriteHit(kind, line.ref(), 0x0, pte);
    EXPECT_EQ(cost.fault_cycles, config_.t_fault);
    EXPECT_EQ(cost.aux_cycles, config_.t_dirty_miss);
    EXPECT_TRUE(pte.dirty());
    EXPECT_TRUE(line.Get().page_dirty);
}

TEST_F(PolicyFixture, WriteChecksOncePerBlock)
{
    const DirtyPolicyKind kind = DirtyPolicyKind::kWrite;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadWrite);
    pte.set_dirty(true);  // Page already dirty: checks still happen.

    cache::LineBuf line(cache::Line{0, Protection::kReadWrite,
                                    cache::CoherencyState::kUnOwned,
                                    true, false});
    const DirtyCost cost = WriteHit(kind, line.ref(), 0x0, pte);
    EXPECT_EQ(cost.aux_cycles, config_.t_dirty_check);
    EXPECT_EQ(cost.fault_cycles, 0u);  // Page already dirty: no fault.
    EXPECT_EQ(events_.Get(sim::Event::kDirtyCheck), 1u);
    // Once the block is written, no further checks.
    cache::VirtualCache::MarkWritten(line.ref());
    EXPECT_TRUE(WriteHitFastPath(kind, line.cref()));
}

TEST_F(PolicyFixture, WriteMissCheckIsFree)
{
    // "When a write misses in the cache, the controller must examine the
    // PTE... so checking the dirty bit incurs no additional penalty."
    const DirtyPolicyKind kind = DirtyPolicyKind::kWrite;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadWrite);
    pte.set_dirty(true);
    const DirtyCost cost = WriteMiss(kind, 0x0, pte);
    EXPECT_EQ(cost.aux_cycles, 0u);
    EXPECT_EQ(cost.fault_cycles, 0u);
}

TEST_F(PolicyFixture, MinChargesOnlyNecessaryFaults)
{
    const DirtyPolicyKind kind = DirtyPolicyKind::kMin;
    pt::Pte pte;
    pte.set_valid(true);
    pte.set_writable_intent(true);
    pte.set_protection(Protection::kReadWrite);
    pte.set_dirty(true);
    cache::LineBuf line(cache::Line{0, Protection::kReadWrite,
                                    cache::CoherencyState::kUnOwned,
                                    false, false});
    // Stale cached copy under MIN refreshes for free.
    const DirtyCost cost = WriteHit(kind, line.ref(), 0x0, pte);
    EXPECT_EQ(cost.fault_cycles, 0u);
    EXPECT_EQ(cost.aux_cycles, 0u);
    EXPECT_EQ(events_.Get(sim::Event::kDirtyBitMiss), 0u);
    EXPECT_TRUE(line.Get().page_dirty);
}

TEST_F(PolicyFixture, ParseRejectsUnknownNames)
{
    EXPECT_EQ(ParseDirtyPolicy("bogus"), std::nullopt);
    EXPECT_EQ(ParseRefPolicy("bogus"), std::nullopt);
    // Each policy has one spelling, ToString's.
    EXPECT_EQ(ParseDirtyPolicy("fault"), std::nullopt);
    EXPECT_EQ(ParseRefPolicy("noref"), std::nullopt);
    EXPECT_EQ(ParseDirtyPolicy("FAULT"), DirtyPolicyKind::kFault);
    EXPECT_EQ(ParseRefPolicy("NOREF"), RefPolicyKind::kNoRef);
    for (const RefPolicyKind kind : kAllRefPolicies) {
        EXPECT_EQ(ParseRefPolicy(ToString(kind)), kind);
    }
}

// ---------------------------------------------------------------------------
// Reference-bit policies.
// ---------------------------------------------------------------------------

class RefPolicyTest : public PolicyFixture
{
  protected:
    std::unique_ptr<RefPolicy> MakeRef(RefPolicyKind kind)
    {
        return MakeRefPolicy(kind, vcache_, config_);
    }
};

TEST_F(RefPolicyTest, MissPolicyFaultsToSetTheBit)
{
    pt::Pte pte;
    pte.set_valid(true);
    const RefCost cost = CacheMiss(RefPolicyKind::kMiss, pte);
    EXPECT_EQ(cost.fault_cycles, config_.t_fault);
    EXPECT_TRUE(pte.referenced());
    EXPECT_EQ(events_.Get(sim::Event::kRefFault), 1u);
    // Set bit: no further faults.
    const RefCost again = CacheMiss(RefPolicyKind::kMiss, pte);
    EXPECT_EQ(again.fault_cycles, 0u);
    EXPECT_EQ(events_.Get(sim::Event::kRefFault), 1u);
}

TEST_F(RefPolicyTest, MissPolicyClearDoesNotFlush)
{
    auto policy = MakeRef(RefPolicyKind::kMiss);
    pt::Pte pte;
    pte.set_referenced(true);
    const GlobalAddr page = 0x30000;
    vcache_.Fill(page, Protection::kReadWrite, false, nullptr);
    const RefCost cost = policy->ClearRefBit(pte, page, events_);
    EXPECT_FALSE(pte.referenced());
    EXPECT_EQ(cost.flush_cycles, 0u);
    EXPECT_EQ(cost.kernel_cycles, config_.t_ref_clear);
    EXPECT_TRUE(vcache_.Lookup(page));  // Still cached: the MISS
                                        // policy's inaccuracy.
    EXPECT_TRUE(policy->ReadRefBit(pt::Pte{pte.raw() | pt::Pte::kRefBit}));
}

TEST_F(RefPolicyTest, TrueRefPolicyFlushesOnClear)
{
    auto policy = MakeRef(RefPolicyKind::kRef);
    pt::Pte pte;
    pte.set_referenced(true);
    const GlobalAddr page = 0x40000;
    vcache_.Fill(page, Protection::kReadWrite, false, nullptr);
    vcache_.Fill(page + 32, Protection::kReadWrite, false, nullptr);
    const RefCost cost = policy->ClearRefBit(pte, page, events_);
    EXPECT_EQ(cost.flush_cycles, config_.t_flush_page);
    EXPECT_FALSE(vcache_.Lookup(page));
    EXPECT_FALSE(vcache_.Lookup(page + 32));
    EXPECT_EQ(events_.Get(sim::Event::kRefClearFlush), 1u);
    // The next access must miss and re-set the bit: true reference bits.
}

TEST_F(RefPolicyTest, NoRefPolicyIsInert)
{
    auto policy = MakeRef(RefPolicyKind::kNoRef);
    pt::Pte pte;
    pte.set_referenced(true);  // Hardware bit left permanently set.
    const RefCost miss_cost = CacheMiss(RefPolicyKind::kNoRef, pte);
    EXPECT_EQ(miss_cost.fault_cycles, 0u);
    EXPECT_EQ(events_.Get(sim::Event::kRefFault), 0u);
    // Reads always say "unreferenced"; clears change nothing.
    EXPECT_FALSE(policy->ReadRefBit(pte));
    const RefCost clear_cost = policy->ClearRefBit(pte, 0x0, events_);
    EXPECT_EQ(clear_cost.kernel_cycles, 0u);
    EXPECT_TRUE(pte.referenced());  // Untouched.
    EXPECT_EQ(events_.Get(sim::Event::kRefClear), 0u);
}

TEST_F(RefPolicyTest, KindNames)
{
    EXPECT_STREQ(ToString(RefPolicyKind::kMiss), "MISS");
    EXPECT_STREQ(ToString(RefPolicyKind::kRef), "REF");
    EXPECT_STREQ(ToString(RefPolicyKind::kNoRef), "NOREF");
}

}  // namespace
}  // namespace spur::policy
