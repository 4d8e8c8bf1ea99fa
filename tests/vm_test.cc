/**
 * @file
 * Tests for the Sprite-like VM: regions, the page-fault path (zero-fill
 * vs. page-in), the two-hand clock daemon, reclaim accounting (including
 * footnote 4's forced write of zero-fill pages and Table 3.5's
 * writable-page bookkeeping), and teardown.
 */
#include <gtest/gtest.h>

#include <memory>

#include "src/cache/cache.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/pt/page_table.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/sim/timing.h"
#include "src/vm/region.h"
#include "src/vm/vm.h"

namespace spur::vm {
namespace {

// ---------------------------------------------------------------------------
// RegionMap
// ---------------------------------------------------------------------------

TEST(RegionMapTest, AddFindRemove)
{
    RegionMap map;
    map.Add(100, 10, PageKind::kHeap);
    const Region* region = map.Find(105);
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->kind, PageKind::kHeap);
    EXPECT_EQ(region->NumPages(), 10u);
    EXPECT_EQ(map.Find(99), nullptr);
    EXPECT_EQ(map.Find(110), nullptr);  // End is exclusive.
    const Region removed = map.Remove(100);
    EXPECT_EQ(removed.end, 110u);
    EXPECT_EQ(map.Find(105), nullptr);
}

TEST(RegionMapTest, MultipleDisjointRegions)
{
    RegionMap map;
    map.Add(0, 5, PageKind::kCode);
    map.Add(5, 5, PageKind::kData);
    map.Add(100, 1, PageKind::kStack);
    EXPECT_EQ(map.NumRegions(), 3u);
    EXPECT_EQ(map.Find(4)->kind, PageKind::kCode);
    EXPECT_EQ(map.Find(5)->kind, PageKind::kData);
    EXPECT_EQ(map.Find(100)->kind, PageKind::kStack);
}

TEST(RegionMapDeathTest, OverlapIsFatal)
{
    RegionMap map;
    map.Add(10, 10, PageKind::kHeap);
    EXPECT_EXIT(map.Add(15, 10, PageKind::kHeap),
                testing::ExitedWithCode(1), "overlap");
    EXPECT_EXIT(map.Add(5, 6, PageKind::kHeap), testing::ExitedWithCode(1),
                "overlap");
}

TEST(RegionMapDeathTest, RemoveUnknownIsFatal)
{
    RegionMap map;
    EXPECT_EXIT(map.Remove(42), testing::ExitedWithCode(1), "unknown");
}

TEST(RegionKindTest, WritabilityAndZeroFill)
{
    EXPECT_FALSE(IsWritable(PageKind::kCode));
    EXPECT_FALSE(IsWritable(PageKind::kFileCache));
    EXPECT_TRUE(IsWritable(PageKind::kData));
    EXPECT_TRUE(IsWritable(PageKind::kHeap));
    EXPECT_TRUE(IsWritable(PageKind::kStack));
    EXPECT_TRUE(IsZeroFill(PageKind::kHeap));
    EXPECT_TRUE(IsZeroFill(PageKind::kStack));
    EXPECT_FALSE(IsZeroFill(PageKind::kData));
    EXPECT_FALSE(IsZeroFill(PageKind::kCode));
}

// ---------------------------------------------------------------------------
// VirtualMemory fixture: a small machine so daemon behaviour is testable.
// ---------------------------------------------------------------------------

class VmTest : public testing::Test
{
  protected:
    VmTest() { Rebuild(8); }

    void Rebuild(uint32_t memory_mb)
    {
        config_ = sim::MachineConfig::Prototype(memory_mb);
        vcache_ = std::make_unique<cache::VirtualCache>(config_);
        table_ = std::make_unique<pt::PageTable>();
        events_ = std::make_unique<sim::EventCounts>();
        timing_ = std::make_unique<sim::TimingModel>(config_);
        vm_ = std::make_unique<VirtualMemory>(config_, *table_, *vcache_,
                                              *events_, *timing_);
        dirty_ = policy::MakeDirtyPolicy(policy::DirtyPolicyKind::kSpur);
        ref_ = policy::MakeRefPolicy(policy::RefPolicyKind::kMiss, *vcache_,
                                     config_);
        vm_->SetPolicies(dirty_.get(), ref_.get());
    }

    sim::MachineConfig config_;
    std::unique_ptr<cache::VirtualCache> vcache_;
    std::unique_ptr<pt::PageTable> table_;
    std::unique_ptr<sim::EventCounts> events_;
    std::unique_ptr<sim::TimingModel> timing_;
    std::unique_ptr<VirtualMemory> vm_;
    std::unique_ptr<policy::DirtyPolicy> dirty_;
    std::unique_ptr<policy::RefPolicy> ref_;
};

TEST_F(VmTest, ZeroFillFaultHasNoIo)
{
    vm_->MapRegion(1000, 4, PageKind::kHeap);
    const pt::Pte& pte = vm_->HandlePageFault(1000ull << 12);
    EXPECT_TRUE(pte.valid());
    EXPECT_TRUE(pte.referenced());
    EXPECT_FALSE(pte.dirty());
    EXPECT_TRUE(pte.zfod_clean());
    EXPECT_TRUE(pte.writable_intent());
    EXPECT_EQ(events_->Get(sim::Event::kZeroFill), 1u);
    EXPECT_EQ(events_->Get(sim::Event::kPageIn), 0u);
    EXPECT_EQ(vm_->store().NumPageIns(), 0u);
}

TEST_F(VmTest, FileBackedFaultPagesIn)
{
    vm_->MapRegion(2000, 4, PageKind::kData);
    const pt::Pte& pte = vm_->HandlePageFault(2000ull << 12);
    EXPECT_TRUE(pte.valid());
    EXPECT_FALSE(pte.zfod_clean());
    EXPECT_EQ(events_->Get(sim::Event::kPageIn), 1u);
    // One page-in waits MachineConfig::page_in_us (PageInCycles), all
    // of it charged to the elapsed time's paging I/O bucket.
    EXPECT_EQ(timing_->Get(sim::TimeBucket::kPagingIo),
              config_.PageInCycles());
}

TEST_F(VmTest, CodeFaultMapsReadOnly)
{
    vm_->MapRegion(3000, 2, PageKind::kCode);
    const pt::Pte& pte = vm_->HandlePageFault(3000ull << 12);
    EXPECT_EQ(pte.protection(), Protection::kReadOnly);
    EXPECT_FALSE(pte.writable_intent());
}

TEST_F(VmTest, ResidentProtectionComesFromDirtyPolicy)
{
    // Under SPUR, writable pages are mapped read-write; under FAULT they
    // would start read-only.
    vm_->MapRegion(4000, 2, PageKind::kHeap);
    const pt::Pte& pte = vm_->HandlePageFault(4000ull << 12);
    EXPECT_EQ(pte.protection(), Protection::kReadWrite);

    auto fault_policy =
        policy::MakeDirtyPolicy(policy::DirtyPolicyKind::kFault);
    vm_->SetPolicies(fault_policy.get(), ref_.get());
    const pt::Pte& pte2 = vm_->HandlePageFault((4000ull + 1) << 12);
    EXPECT_EQ(pte2.protection(), Protection::kReadOnly);
    EXPECT_TRUE(pte2.writable_intent());
}

TEST_F(VmTest, FaultBindsFrameAndReverseMap)
{
    vm_->MapRegion(5000, 1, PageKind::kHeap);
    const pt::Pte& pte = vm_->HandlePageFault(5000ull << 12);
    EXPECT_EQ(vm_->frames().VpnOf(pte.pfn()), 5000u);
}

TEST_F(VmTest, UnmapFreesFramesAndInvalidates)
{
    vm_->MapRegion(6000, 8, PageKind::kHeap);
    for (GlobalVpn vpn = 6000; vpn < 6008; ++vpn) {
        vm_->HandlePageFault(vpn << 12);
    }
    const uint32_t free_before = vm_->frames().NumFree();
    vm_->UnmapRegion(6000);
    EXPECT_EQ(vm_->frames().NumFree(), free_before + 8);
    EXPECT_EQ(vm_->regions().NumRegions(), 0u);
    const pt::Pte* pte = table_->Find(6000);
    ASSERT_NE(pte, nullptr);
    EXPECT_FALSE(pte->valid());
}

TEST_F(VmTest, UnmapFlushesCacheLines)
{
    vm_->MapRegion(7000, 1, PageKind::kHeap);
    vm_->HandlePageFault(7000ull << 12);
    const GlobalAddr addr = 7000ull << 12;
    vcache_->Fill(addr, Protection::kReadWrite, false, nullptr);
    ASSERT_TRUE(vcache_->Lookup(addr));
    vm_->UnmapRegion(7000);
    EXPECT_FALSE(vcache_->Lookup(addr));
}

TEST_F(VmTest, DaemonReclaimsUnreferencedPages)
{
    // Fill memory to the brim with a big heap: the daemon must kick in
    // and every fault must still succeed.
    const uint64_t pages = config_.NumFrames();  // > pageable frames.
    vm_->MapRegion(10000, pages, PageKind::kHeap);
    for (uint64_t i = 0; i < pages; ++i) {
        vm_->HandlePageFault((10000 + i) << 12);
    }
    EXPECT_GT(events_->Get(sim::Event::kDaemonSweep), 0u);
    EXPECT_GT(events_->Get(sim::Event::kPageReclaimClean) +
                  events_->Get(sim::Event::kPageOutDirty),
              0u);
    EXPECT_GE(vm_->frames().NumFree(), 1u);
}

TEST_F(VmTest, Footnote4ZeroFillPagesAreWrittenOnFirstReplacement)
{
    // Untouched-after-fill zero-fill pages must be paged out (written to
    // swap) on their first replacement even though they are clean.
    const uint64_t pages = config_.NumFrames();
    vm_->MapRegion(20000, pages, PageKind::kHeap);
    for (uint64_t i = 0; i < pages; ++i) {
        vm_->HandlePageFault((20000 + i) << 12);
    }
    // All reclaimed pages were zero-fill-clean: every writable reclaim
    // must have been a page-out, none a clean drop.
    EXPECT_GT(events_->Get(sim::Event::kPageOutDirty), 0u);
    EXPECT_EQ(events_->Get(sim::Event::kPageoutWritableNotModified), 0u);
    EXPECT_EQ(events_->Get(sim::Event::kPageOutDirty),
              events_->Get(sim::Event::kPageoutWritableModified));
}

TEST_F(VmTest, ReloadedCleanPageReclaimsWithoutIo)
{
    // Page a zero-fill page out, fault it back (page-in), do not touch
    // it, and force its reclaim: now it is genuinely clean (not zfod any
    // more) and must be dropped without I/O, counted "not modified".
    const uint64_t pages = config_.NumFrames();
    vm_->MapRegion(30000, pages, PageKind::kHeap);
    for (uint64_t i = 0; i < pages; ++i) {
        vm_->HandlePageFault((30000 + i) << 12);
    }
    // Find a page the clock reclaimed during the fill, and reload it.
    GlobalVpn victim = 0;
    for (GlobalVpn vpn = 30000; vpn < 30000 + pages; ++vpn) {
        const pt::Pte* pte = table_->Find(vpn);
        if (pte != nullptr && !pte->valid()) {
            victim = vpn;
            break;
        }
    }
    ASSERT_NE(victim, 0u) << "no page was reclaimed under full pressure";
    const pt::Pte& reloaded = vm_->HandlePageFault(victim << 12);
    EXPECT_FALSE(reloaded.zfod_clean());
    EXPECT_EQ(events_->Get(sim::Event::kPageoutWritableNotModified), 0u);
    // Apply enough fresh pressure that the clock laps the reloaded,
    // untouched page and reclaims it again - this time genuinely clean.
    vm_->MapRegion(90000, 2 * pages, PageKind::kHeap);
    for (uint64_t i = 0; i < 2 * pages; ++i) {
        vm_->HandlePageFault((90000 + i) << 12);
    }
    EXPECT_GT(events_->Get(sim::Event::kPageoutWritableNotModified), 0u);
}

TEST_F(VmTest, ReclaimFlushesTheVirtualCache)
{
    // A reclaimed page must leave no stale lines behind.
    const uint64_t pages = config_.NumFrames();
    vm_->MapRegion(40000, pages, PageKind::kHeap);
    vm_->HandlePageFault(40000ull << 12);
    vcache_->Fill(40000ull << 12, Protection::kReadWrite, false, nullptr);
    for (uint64_t i = 1; i < pages; ++i) {
        vm_->HandlePageFault((40000 + i) << 12);
    }
    const pt::Pte* pte = table_->Find(40000);
    ASSERT_NE(pte, nullptr);
    if (!pte->valid()) {  // It was reclaimed, as expected under pressure.
        EXPECT_FALSE(vcache_->Lookup(40000ull << 12));
    }
    EXPECT_GT(events_->Get(sim::Event::kPageFlush), 0u);
}

TEST_F(VmTest, WatermarksAreOrdered)
{
    EXPECT_GT(vm_->LowWatermark(), 0u);
    EXPECT_GT(vm_->HighWatermark(), vm_->LowWatermark());
    EXPECT_LT(vm_->HighWatermark(), vm_->frames().NumPageable());
}

TEST_F(VmTest, SwapCopySurvivesReclaimAndServesReload)
{
    const uint64_t pages = config_.NumFrames();
    vm_->MapRegion(50000, pages, PageKind::kHeap);
    for (uint64_t i = 0; i < pages; ++i) {
        vm_->HandlePageFault((50000 + i) << 12);
    }
    // Some pages were reclaimed; zero-fill-clean ones went to swap
    // (footnote 4), so reloads must be page-ins, not fresh zero-fills.
    GlobalVpn victim = 0;
    for (GlobalVpn vpn = 50000; vpn < 50000 + pages; ++vpn) {
        const pt::Pte* pte = table_->Find(vpn);
        if (pte != nullptr && !pte->valid()) {
            victim = vpn;
            break;
        }
    }
    ASSERT_NE(victim, 0u);
    const auto zf_before = events_->Get(sim::Event::kZeroFill);
    ASSERT_TRUE(vm_->store().HasCopy(victim));
    vm_->HandlePageFault(victim << 12);
    EXPECT_EQ(events_->Get(sim::Event::kZeroFill), zf_before);
    EXPECT_GT(events_->Get(sim::Event::kPageIn), 0u);
}

TEST_F(VmTest, FaultOnUnmappedPagePanics)
{
    EXPECT_DEATH(vm_->HandlePageFault(0xDEAD000ull << 12), "unmapped");
}

}  // namespace
}  // namespace spur::vm
