/**
 * @file
 * Randomized stress tests: long random operation sequences against the
 * full system with global invariants checked along the way.  These are
 * the failure-injection nets that catch interactions the scenario tests
 * cannot enumerate.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/core/system.h"
#include "src/workload/process.h"

namespace spur::core {
namespace {

using policy::DirtyPolicyKind;
using policy::RefPolicyKind;
using workload::kHeapBase;

/** Checks the cross-module invariants of a live system. */
void
CheckInvariants(const SpurSystem& system)
{
    const auto& vcache = system.vcache();
    const auto& table = system.kernel().page_table();
    const auto& frames = system.kernel().memory().frames();
    const unsigned page_shift = system.config().PageShift();

    // 1. Every valid non-PTE cache line belongs to a resident page, and
    //    its cached page-dirty bit never claims *more* than the PTE
    //    (stale may lag behind, never run ahead).
    for (uint64_t index = 0; index < vcache.NumLines(); ++index) {
        const cache::Line& line = vcache.LineAt(index);
        if (!line.valid()) {
            continue;
        }
        const GlobalAddr addr = vcache.BlockAddrOf(index, line);
        if (pt::PageTable::IsPteAddr(addr)) {
            continue;
        }
        const pt::Pte* pte = table.Find(addr >> page_shift);
        ASSERT_NE(pte, nullptr) << std::hex << addr;
        ASSERT_TRUE(pte->valid()) << std::hex << addr;
        if (line.page_dirty) {
            ASSERT_TRUE(pte->dirty())
                << "cached page-dirty ahead of the PTE";
        }
    }

    // 2. Every resident PTE's frame reverse-maps to it.
    // (Scanned via the frame table: every bound frame's vpn must have a
    // valid PTE pointing back at the frame.)
    for (FrameNum f = frames.FirstPageable(); f < frames.NumTotal(); ++f) {
        const GlobalVpn vpn = frames.VpnOf(f);
        if (vpn == mem::kNoVpn) {
            continue;
        }
        const pt::Pte* pte = table.Find(vpn);
        ASSERT_NE(pte, nullptr);
        ASSERT_TRUE(pte->valid());
        ASSERT_EQ(pte->pfn(), f);
    }
}

class StressTest : public testing::TestWithParam<DirtyPolicyKind>
{
};

TEST_P(StressTest, RandomOpsPreserveInvariants)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(5);
    SpurSystem system(config, GetParam(), RefPolicyKind::kMiss);
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);

    struct LiveProcess {
        Pid pid;
        uint32_t heap_pages;
    };
    std::vector<LiveProcess> live;

    const uint64_t page = config.page_bytes;
    for (int op = 0; op < 120'000; ++op) {
        const double dice = rng.NextDouble();
        if ((dice < 0.0006 && live.size() < 12) || live.empty()) {
            // Spawn a process with a random-size heap.
            const auto heap_pages =
                static_cast<uint32_t>(32 + rng.NextBelow(480));
            const Pid pid = system.CreateProcess();
            system.MapRegion(pid, kHeapBase, heap_pages * page,
                             vm::PageKind::kHeap);
            live.push_back(LiveProcess{pid, heap_pages});
        } else if (dice < 0.001 && live.size() > 1) {
            // Kill a random process.
            const size_t victim = rng.NextBelow(live.size());
            system.DestroyProcess(live[victim].pid);
            live[victim] = live.back();
            live.pop_back();
        } else {
            // A random access from a random process.
            const LiveProcess& proc = live[rng.NextBelow(live.size())];
            const ProcessAddr addr =
                kHeapBase +
                static_cast<ProcessAddr>(
                    rng.NextBelow(proc.heap_pages) * page +
                    rng.NextBelow(128) * 32);
            const double kind = rng.NextDouble();
            system.Access(proc.pid, addr,
                          kind < 0.3   ? AccessType::kWrite
                          : kind < 0.9 ? AccessType::kRead
                                       : AccessType::kIFetch);
        }
        if (op % 20'000 == 19'999) {
            CheckInvariants(system);
        }
    }
    CheckInvariants(system);

    // Sanity: the run actually exercised the interesting machinery.
    const auto& ev = system.events();
    EXPECT_GT(ev.Get(sim::Event::kPageFault), 0u);
    EXPECT_GT(ev.Get(sim::Event::kDirtyFault), 0u);
    EXPECT_GT(ev.Get(sim::Event::kDaemonSweep), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, StressTest,
                         testing::Values(DirtyPolicyKind::kMin,
                                         DirtyPolicyKind::kFault,
                                         DirtyPolicyKind::kFlush,
                                         DirtyPolicyKind::kSpur,
                                         DirtyPolicyKind::kWrite,
                                         DirtyPolicyKind::kSpurProt,
                                         DirtyPolicyKind::kWriteHw),
                         [](const auto& info) {
                             std::string name = policy::ToString(info.param);
                             for (char& c : name) {
                                 if (c == '-') {
                                     c = '_';
                                 }
                             }
                             return name;
                         });

TEST(StressRefPolicyTest, AllRefPoliciesSurviveChurn)
{
    for (const RefPolicyKind ref :
         {RefPolicyKind::kMiss, RefPolicyKind::kRef,
          RefPolicyKind::kNoRef}) {
        sim::MachineConfig config = sim::MachineConfig::Prototype(5);
        SpurSystem system(config, DirtyPolicyKind::kFault, ref);
        const Pid pid = system.CreateProcess();
        const uint64_t page = config.page_bytes;
        const uint64_t pages = config.NumFrames() + 512;
        system.MapRegion(pid, kHeapBase, pages * page,
                         vm::PageKind::kHeap);
        Rng rng(11);
        for (int i = 0; i < 200'000; ++i) {
            const ProcessAddr addr =
                kHeapBase + static_cast<ProcessAddr>(
                                rng.NextBelow(pages) * page +
                                rng.NextBelow(128) * 32);
            system.Access(pid, addr,
                          rng.Chance(0.25) ? AccessType::kWrite
                                           : AccessType::kRead);
        }
        CheckInvariants(system);
        EXPECT_GT(system.events().Get(sim::Event::kPageOutDirty), 0u)
            << ToString(ref);
    }
}

}  // namespace
}  // namespace spur::core
