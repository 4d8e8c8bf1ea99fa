/**
 * @file
 * Tests for the TLB and the TLB + physical-cache baseline machine: the
 * free reference/dirty-bit maintenance that motivates the whole paper,
 * the translation-on-every-access cost, and the reclaim shootdown path.
 */
#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/core/tlb_system.h"
#include "src/workload/driver.h"
#include "src/workload/process.h"
#include "src/workload/workloads.h"
#include "src/xlate/tlb.h"
#include "tests/auditing_host.h"

namespace spur {
namespace {

using workload::kHeapBase;

// ---------------------------------------------------------------------------
// Tlb
// ---------------------------------------------------------------------------

TEST(TlbTest, MissThenHit)
{
    xlate::Tlb tlb(64);
    EXPECT_FALSE(tlb.Lookup(42));
    tlb.Insert(42);
    EXPECT_TRUE(tlb.Lookup(42));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, DirectMappedConflict)
{
    xlate::Tlb tlb(64);
    tlb.Insert(1);
    tlb.Insert(1 + 64);  // Same slot.
    EXPECT_FALSE(tlb.Lookup(1));
    EXPECT_TRUE(tlb.Lookup(1 + 64));
}

TEST(TlbTest, Invalidate)
{
    xlate::Tlb tlb(64);
    tlb.Insert(7);
    tlb.Invalidate(7);
    EXPECT_FALSE(tlb.Lookup(7));
    // Invalidating an absent vpn is a no-op, even one sharing a slot.
    tlb.Insert(8);
    tlb.Invalidate(8 + 64);
    EXPECT_TRUE(tlb.Lookup(8));
}

TEST(TlbTest, RejectsBadSizes)
{
    EXPECT_EXIT(xlate::Tlb(0), testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(xlate::Tlb(63), testing::ExitedWithCode(1),
                "power of two");
}

// ---------------------------------------------------------------------------
// TlbSystem
// ---------------------------------------------------------------------------

class TlbSystemTest : public testing::Test
{
  protected:
    TlbSystemTest() : system_(sim::MachineConfig::Prototype(8))
    {
        pid_ = system_.CreateProcess();
        system_.MapRegion(pid_, kHeapBase,
                          130 * system_.config().page_bytes,
                          vm::PageKind::kHeap);
    }

    core::TlbSystem system_;
    Pid pid_ = 0;
};

TEST_F(TlbSystemTest, DirtyBitsAreFree)
{
    // A write sets the PTE D bit with zero fault cycles: the paper's
    // "checking the bits incurs no additional overhead".
    system_.Access(pid_, kHeapBase, AccessType::kWrite);
    const auto& ev = system_.events();
    // The clean->dirty transition is recorded for bookkeeping...
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFault), 1u);
    // ...but no 1000-cycle handler ran: fault time is only the page
    // fault software, never dirty-bit handling.
    EXPECT_EQ(system_.timing().Get(sim::TimeBucket::kFault),
              system_.config().t_pagefault_sw);
    EXPECT_EQ(ev.Get(sim::Event::kDirtyBitMiss), 0u);
    EXPECT_EQ(ev.Get(sim::Event::kExcessFault), 0u);
}

TEST_F(TlbSystemTest, ReferenceBitsAreTrueAndFree)
{
    system_.Access(pid_, kHeapBase, AccessType::kRead);
    EXPECT_EQ(system_.events().Get(sim::Event::kRefFault), 0u);
    // The PTE's R bit is set (via the TLB path).
    // Touch another page; both stay referenced.
    system_.Access(pid_, kHeapBase + 4096, AccessType::kRead);
    EXPECT_EQ(system_.events().Get(sim::Event::kRefFault), 0u);
}

TEST_F(TlbSystemTest, EveryAccessPaysTheTlbCycle)
{
    // Two hits to the same cached block still charge translation twice.
    system_.Access(pid_, kHeapBase, AccessType::kRead);
    const Cycles xlate_after_one =
        system_.timing().Get(sim::TimeBucket::kXlate);
    system_.Access(pid_, kHeapBase, AccessType::kRead);
    EXPECT_EQ(system_.timing().Get(sim::TimeBucket::kXlate),
              xlate_after_one + 1);
}

TEST_F(TlbSystemTest, TlbMissWalksThePageTable)
{
    system_.Access(pid_, kHeapBase, AccessType::kRead);
    EXPECT_EQ(system_.tlb().misses(), 1u);
    system_.Access(pid_, kHeapBase + 8, AccessType::kRead);
    EXPECT_EQ(system_.tlb().misses(), 1u);
    EXPECT_GE(system_.tlb().hits(), 1u);
    // A conflicting vpn (64 pages away) displaces the entry.
    system_.Access(pid_, kHeapBase + 64 * 4096, AccessType::kRead);
    system_.Access(pid_, kHeapBase, AccessType::kRead);
    EXPECT_EQ(system_.tlb().misses(), 3u);
}

TEST_F(TlbSystemTest, ZeroFillClassificationMatchesSpur)
{
    system_.Access(pid_, kHeapBase, AccessType::kWrite);
    EXPECT_EQ(system_.events().Get(sim::Event::kDirtyFaultZfod), 1u);
}

TEST_F(TlbSystemTest, RunsAFullWorkloadViaTheDriver)
{
    // The WorkloadHost abstraction lets the same scripts run here.
    core::TlbSystem machine(sim::MachineConfig::Prototype(8));
    workload::Driver driver(machine, workload::MakeSlc(), 300'000, 1);
    driver.Run();
    EXPECT_EQ(machine.events().TotalRefs(), 300'000u);
    EXPECT_GT(machine.tlb().hits(), machine.tlb().misses());
    EXPECT_EQ(machine.events().Get(sim::Event::kRefFault), 0u);
}

TEST_F(TlbSystemTest, WorkloadAuditsCleanAtEveryContextSwitch)
{
    // gc-sweep pages at 5 MB, so reclaim shootdowns and page-outs run
    // between the audits.
    core::TlbSystem machine(sim::MachineConfig::Prototype(5));
    testing_support::AuditingHost audited(machine, machine.kernel());
    workload::Driver driver(audited, workload::MakeGcSweep(), 600'000, 1);
    driver.Run();
    EXPECT_GT(audited.audits(), 10u);
    EXPECT_EQ(audited.first_failure(), "");
    EXPECT_GT(machine.events().Get(sim::Event::kPageOutDirty), 0u);
    EXPECT_GT(machine.events().Get(sim::Event::kRefClear), 0u);
    const check::AuditReport report = machine.kernel().Audit();
    EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(TlbSystemTest, ReclaimShootsDownTlbNotCache)
{
    // Under memory pressure pages get reclaimed; the TLB machine pays a
    // shootdown (and frame-line invalidation), never a 500-cycle
    // virtual-page flush per ref-bit clear.
    core::TlbSystem machine(sim::MachineConfig::Prototype(5));
    const Pid pid = machine.CreateProcess();
    const uint64_t page = machine.config().page_bytes;
    const uint64_t pages = machine.config().NumFrames() + 256;
    machine.MapRegion(pid, kHeapBase, pages * page, vm::PageKind::kHeap);
    for (uint64_t i = 0; i < pages; ++i) {
        machine.Access(pid,
                       static_cast<ProcessAddr>(kHeapBase + i * page),
                       AccessType::kRead);
    }
    EXPECT_GT(machine.events().Get(sim::Event::kRefClear), 0u);
    EXPECT_EQ(machine.events().Get(sim::Event::kRefClearFlush), 0u);
}

TEST_F(TlbSystemTest, SameStreamFewerOverheadsThanSpurMachine)
{
    // Run identical workloads on both machines: the TLB machine takes no
    // bit-maintenance faults, while the SPUR machine pays xlate time
    // only on misses.
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::SpurSystem spur(config, policy::DirtyPolicyKind::kSpur,
                          policy::RefPolicyKind::kMiss);
    core::TlbSystem tlb(config);
    {
        workload::Driver driver(spur, workload::MakeSlc(), 300'000, 4);
        driver.Run();
    }
    {
        workload::Driver driver(tlb, workload::MakeSlc(), 300'000, 4);
        driver.Run();
    }
    // Bit maintenance: SPUR pays, the TLB machine does not.
    EXPECT_GT(spur.timing().Get(sim::TimeBucket::kDirtyAux) +
                  spur.events().Get(sim::Event::kRefFault),
              0u);
    EXPECT_EQ(tlb.events().Get(sim::Event::kRefFault), 0u);
    // Translation: the TLB machine pays on every reference, SPUR only on
    // misses - the virtual cache's raison d'etre.
    EXPECT_GT(tlb.timing().Get(sim::TimeBucket::kXlate),
              spur.timing().Get(sim::TimeBucket::kXlate));
}

}  // namespace
}  // namespace spur
