/**
 * @file
 * Integration tests for the multiprocessor machine: coherent sharing
 * through the bus, the dirty/reference machinery over shared PTEs, and
 * the all-caches flush semantics the REF policy depends on.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/mp_system.h"
#include "src/core/system.h"
#include "src/workload/driver.h"
#include "src/workload/process.h"
#include "src/workload/workloads.h"

namespace spur::core {
namespace {

using policy::DirtyPolicyKind;
using policy::RefPolicyKind;
using workload::kHeapBase;

class MpSystemTest : public testing::Test
{
  protected:
    void Build(unsigned cpus, DirtyPolicyKind dirty = DirtyPolicyKind::kSpur,
               RefPolicyKind ref = RefPolicyKind::kMiss)
    {
        system_ = std::make_unique<MpSpurSystem>(
            sim::MachineConfig::Prototype(8), cpus, dirty, ref);
        pid_ = kernel().CreateProcess();
        kernel().MapRegion(pid_, kHeapBase, 64 * kernel().config().page_bytes,
                           vm::PageKind::kHeap);
    }

    Kernel& kernel() { return system_->kernel(); }

    std::unique_ptr<MpSpurSystem> system_;
    Pid pid_ = 0;
};

TEST_F(MpSystemTest, RejectsBadCpuCounts)
{
    EXPECT_EXIT(MpSpurSystem(sim::MachineConfig::Prototype(8), 0,
                             DirtyPolicyKind::kSpur, RefPolicyKind::kMiss),
                testing::ExitedWithCode(1), "1..12");
    EXPECT_EXIT(MpSpurSystem(sim::MachineConfig::Prototype(8), 13,
                             DirtyPolicyKind::kSpur, RefPolicyKind::kMiss),
                testing::ExitedWithCode(1), "1..12");
}

TEST_F(MpSystemTest, ReadSharingSuppliesFromOwningCache)
{
    Build(2);
    // CPU 0 writes a block (becomes OwnedExclusive), CPU 1 reads it: the
    // block must come cache-to-cache and the owner drop to OwnedShared.
    system_->Access(0, MemRef{pid_, kHeapBase, AccessType::kWrite});
    system_->Access(1, MemRef{pid_, kHeapBase, AccessType::kRead});
    const auto& ev = kernel().events();
    EXPECT_EQ(ev.Get(sim::Event::kBusCacheToCache), 1u);
    const GlobalAddr gva = kernel().ToGlobal(pid_, kHeapBase);
    EXPECT_EQ(system_->vcache(0).Lookup(gva).state(),
              cache::CoherencyState::kOwnedShared);
    EXPECT_EQ(system_->vcache(1).Lookup(gva).state(),
              cache::CoherencyState::kUnOwned);
}

TEST_F(MpSystemTest, WriteInvalidatesPeerCopies)
{
    Build(3);
    system_->Access(0, MemRef{pid_, kHeapBase, AccessType::kRead});
    system_->Access(1, MemRef{pid_, kHeapBase, AccessType::kRead});
    system_->Access(2, MemRef{pid_, kHeapBase, AccessType::kWrite});
    const GlobalAddr gva = kernel().ToGlobal(pid_, kHeapBase);
    EXPECT_FALSE(system_->vcache(0).Lookup(gva));
    EXPECT_FALSE(system_->vcache(1).Lookup(gva));
    EXPECT_EQ(system_->vcache(2).Lookup(gva).state(),
              cache::CoherencyState::kOwnedExclusive);
    EXPECT_GE(kernel().events().Get(sim::Event::kBusInvalidation), 2u);
}

TEST_F(MpSystemTest, WriteHitOnSharedLineUpgrades)
{
    Build(2);
    system_->Access(0, MemRef{pid_, kHeapBase, AccessType::kRead});
    system_->Access(1, MemRef{pid_, kHeapBase, AccessType::kRead});
    // CPU 0 hits its UnOwned copy with a write: bus upgrade, peer copy
    // invalidated.
    system_->Access(0, MemRef{pid_, kHeapBase, AccessType::kWrite});
    const auto& ev = kernel().events();
    EXPECT_EQ(ev.Get(sim::Event::kBusUpgrade), 1u);
    const GlobalAddr gva = kernel().ToGlobal(pid_, kHeapBase);
    EXPECT_FALSE(system_->vcache(1).Lookup(gva));
    EXPECT_EQ(system_->vcache(0).Lookup(gva).state(),
              cache::CoherencyState::kOwnedExclusive);
}

TEST_F(MpSystemTest, DirtyFaultHappensOnceAcrossProcessors)
{
    // The page-dirty machinery is shared through the PTE: CPU 0's write
    // takes the necessary fault; CPU 1's later write to another block of
    // the same page sees the PTE already dirty (at worst a dirty-bit
    // miss, never a second fault).
    Build(2);
    const auto block =
        static_cast<ProcessAddr>(kernel().config().block_bytes);
    system_->Access(0, MemRef{pid_, kHeapBase, AccessType::kWrite});
    system_->Access(1, MemRef{pid_, kHeapBase + block, AccessType::kWrite});
    EXPECT_EQ(kernel().events().Get(sim::Event::kDirtyFault), 1u);
}

TEST_F(MpSystemTest, StaleCachedDirtyBitOnPeerIsADirtyBitMiss)
{
    Build(2);
    const auto block =
        static_cast<ProcessAddr>(kernel().config().block_bytes);
    // CPU 1 reads a block while the page is clean: its line caches P=0.
    system_->Access(1, MemRef{pid_, kHeapBase + block, AccessType::kRead});
    // CPU 0 dirties the page via another block.
    system_->Access(0, MemRef{pid_, kHeapBase, AccessType::kWrite});
    EXPECT_EQ(kernel().events().Get(sim::Event::kDirtyFault), 1u);
    // CPU 1 writes its stale-P block: dirty-bit miss, not a fault.
    system_->Access(1, MemRef{pid_, kHeapBase + block, AccessType::kWrite});
    EXPECT_EQ(kernel().events().Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(kernel().events().Get(sim::Event::kDirtyBitMiss), 1u);
}

TEST_F(MpSystemTest, AllCachesFlusherVisitsEveryCache)
{
    Build(4);
    // Cache the same page's blocks on all four CPUs.
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        system_->Access(cpu, MemRef{pid_, kHeapBase + cpu * 4,
                                    AccessType::kRead});
    }
    // Destroying the process flushes the page from every cache.
    kernel().DestroyProcess(pid_);
    const GlobalAddr gva = kernel().ToGlobal(pid_, kHeapBase);
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        EXPECT_FALSE(system_->vcache(cpu).Lookup(gva)) << cpu;
    }
}

TEST_F(MpSystemTest, RefClearFlushCostScalesWithCpus)
{
    // The Section 4.1 claim: REF is "especially true in a multiprocessor,
    // which must flush the page from all the caches."
    const uint64_t page = 4096;
    Cycles flush_1 = 0;
    Cycles flush_4 = 0;
    for (const unsigned cpus : {1u, 4u}) {
        MpSpurSystem system(sim::MachineConfig::Prototype(8), cpus,
                            DirtyPolicyKind::kSpur, RefPolicyKind::kRef);
        Kernel& kernel = system.kernel();
        const Pid pid = kernel.CreateProcess();
        kernel.MapRegion(pid, kHeapBase, 32 * page, vm::PageKind::kHeap);
        // Heavy pressure region to trigger daemon clears.
        kernel.MapRegion(pid, workload::kDataBase,
                         (kernel.config().NumFrames() + 512) * page,
                         vm::PageKind::kHeap);
        for (uint64_t i = 0; i < kernel.config().NumFrames() + 200; ++i) {
            system.Access(0, MemRef{pid, static_cast<ProcessAddr>(
                                             workload::kDataBase + i * page),
                                    AccessType::kRead});
        }
        const Cycles flush = kernel.timing().Get(sim::TimeBucket::kFlush);
        if (cpus == 1) {
            flush_1 = flush;
        } else {
            flush_4 = flush;
        }
    }
    EXPECT_GT(flush_1, 0u);
    // Four caches to visit: flush time must grow substantially (close to
    // 4x; daemon step counts vary slightly between runs).
    EXPECT_GT(flush_4, 2 * flush_1);
}

TEST_F(MpSystemTest, OneCpuMatchesUniprocessorOnEveryNonBusEvent)
{
    // One Sprite kernel runs under both machines, so on the same job
    // stream a 1-CPU multiprocessor counts exactly what the uniprocessor
    // counts — lifecycle included — apart from its bus transactions.
    // The budget runs past a process's end, so teardown is exercised.
    constexpr DirtyPolicyKind kDirty[] = {
        DirtyPolicyKind::kMin, DirtyPolicyKind::kFault,
        DirtyPolicyKind::kFlush, DirtyPolicyKind::kSpur,
        DirtyPolicyKind::kWrite};
    constexpr RefPolicyKind kRef[] = {
        RefPolicyKind::kMiss, RefPolicyKind::kRef, RefPolicyKind::kNoRef};
    constexpr uint64_t kRefs = 400'000;
    constexpr uint64_t kSeed = 7;
    const sim::MachineConfig config = sim::MachineConfig::Prototype(5);
    for (const DirtyPolicyKind dirty : kDirty) {
        for (const RefPolicyKind ref : kRef) {
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

            for (size_t i = 0; i < sim::kNumEvents; ++i) {
                const auto event = static_cast<sim::Event>(i);
                if (event >= sim::Event::kBusRead) {
                    continue;
                }
                EXPECT_EQ(mp.kernel().events().Get(event),
                          uni.events().Get(event))
                    << sim::ToString(event);
            }
        }
    }
}

TEST_F(MpSystemTest, CpuPortRunsSyntheticProcesses)
{
    // Synthetic processes built for the uniprocessor API run pinned to
    // multiprocessor CPUs through Port().
    Build(2);
    auto port0 = system_->Port(0);
    auto port1 = system_->Port(1);
    workload::ProcessProfile profile;
    profile.code_pages = 16;
    profile.data_pages = 16;
    profile.heap_pages = 64;
    workload::SyntheticProcess a(port0, profile, 1);
    workload::SyntheticProcess b(port1, profile, 2);
    for (int i = 0; i < 50'000; ++i) {
        a.Step();
        b.Step();
    }
    EXPECT_EQ(kernel().events().TotalRefs(), 100'000u);
    // Both caches saw traffic.
    EXPECT_GT(system_->vcache(0).NumValid(), 0u);
    EXPECT_GT(system_->vcache(1).NumValid(), 0u);
}

}  // namespace
}  // namespace spur::core
