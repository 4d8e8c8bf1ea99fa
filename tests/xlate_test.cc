/**
 * @file
 * Tests for in-cache address translation: the cache-as-TLB behaviour,
 * second-level (wired) accesses, cost accounting, and the competition of
 * PTE blocks with data blocks for cache space.
 */
#include <gtest/gtest.h>

#include "src/cache/cache.h"
#include "src/pt/page_table.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/xlate/translator.h"

namespace spur::xlate {
namespace {

class XlateTest : public testing::Test
{
  protected:
    XlateTest()
        : config_(sim::MachineConfig::Prototype(8)),
          vcache_(config_),
          xlate_(vcache_, table_, config_)
    {
    }

    sim::MachineConfig config_;
    cache::VirtualCache vcache_;
    pt::PageTable table_;
    Translator xlate_;
    sim::EventCounts events_;
};

TEST_F(XlateTest, FirstTranslationMissesToSecondLevel)
{
    const XlateResult result = xlate_.Translate(0x4000, events_);
    ASSERT_NE(result.pte, nullptr);
    EXPECT_EQ(events_.Get(sim::Event::kXlatePteMiss), 1u);
    EXPECT_EQ(events_.Get(sim::Event::kXlateL2Access), 1u);
    EXPECT_EQ(events_.Get(sim::Event::kXlatePteHit), 0u);
    // Cost: 3-cycle cache check plus a block fetch.
    EXPECT_EQ(result.cycles,
              config_.t_xlate_hit + config_.BlockFetchCycles());
}

TEST_F(XlateTest, SecondTranslationHitsCachedPteBlock)
{
    xlate_.Translate(0x4000, events_);
    const XlateResult result = xlate_.Translate(0x4000, events_);
    EXPECT_EQ(result.cycles, config_.t_xlate_hit);
    EXPECT_EQ(events_.Get(sim::Event::kXlatePteHit), 1u);
}

TEST_F(XlateTest, NeighbouringPagesShareAPteBlock)
{
    // A 32-byte block holds 8 PTEs: translating page N caches the PTEs
    // of pages [N & ~7, N | 7] - the "cache as a very large TLB" effect.
    xlate_.Translate(0 << 12, events_);
    for (GlobalVpn vpn = 1; vpn < 8; ++vpn) {
        xlate_.Translate(static_cast<GlobalAddr>(vpn) << 12, events_);
        EXPECT_EQ(events_.Get(sim::Event::kXlatePteHit), vpn) << "vpn " << vpn;
    }
    // Page 8's PTE is in the next block.
    xlate_.Translate(GlobalAddr{8} << 12, events_);
    EXPECT_EQ(events_.Get(sim::Event::kXlatePteHit), 7u);
    EXPECT_EQ(events_.Get(sim::Event::kXlatePteMiss), 2u);
}

TEST_F(XlateTest, ReturnsAuthoritativePte)
{
    XlateResult first = xlate_.Translate(0x9000, events_);
    first.pte->set_valid(true);
    first.pte->set_pfn(321);
    const XlateResult second = xlate_.Translate(0x9000, events_);
    EXPECT_EQ(second.pte, first.pte);
    EXPECT_TRUE(second.pte->valid());
    EXPECT_EQ(second.pte->pfn(), 321u);
}

TEST_F(XlateTest, PteBlocksCompeteForCacheSpace)
{
    // Fill the data block that conflicts with the PTE block of vpn 0,
    // then translate: the PTE fill must evict it.
    const GlobalAddr pte_va = pt::PageTable::PteVa(0);
    // A data address with the same cache index as the PTE block but a
    // different tag.
    const GlobalAddr conflicting = (pte_va & (config_.cache_bytes - 1));
    cache::LineRef line = vcache_.Fill(conflicting, Protection::kReadWrite,
                                       true, nullptr);
    cache::VirtualCache::MarkWritten(line);
    const XlateResult result = xlate_.Translate(0x0, events_);
    EXPECT_EQ(events_.Get(sim::Event::kWriteback), 1u);
    EXPECT_FALSE(vcache_.Lookup(conflicting));
    // The PTE fill charged the writeback too.
    EXPECT_EQ(result.cycles, config_.t_xlate_hit +
                                 2 * Cycles{config_.BlockFetchCycles()});
}

TEST_F(XlateTest, PteLineIsKernelProtectedAndPageDirty)
{
    // PTE blocks are cached with kernel read-write protection and the
    // page-dirty bit set, so stores to PTEs never recurse into the
    // dirty-bit machinery.
    xlate_.Translate(0x4000, events_);
    const cache::LineRef line =
        vcache_.Lookup(pt::PageTable::PteVa(0x4000 >> 12));
    ASSERT_TRUE(line);
    EXPECT_EQ(line.prot(), Protection::kReadWrite);
    EXPECT_TRUE(line.page_dirty());
}

}  // namespace
}  // namespace spur::xlate
