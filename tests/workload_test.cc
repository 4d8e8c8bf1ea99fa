/**
 * @file
 * Tests for the synthetic workload machinery: the process generator's
 * address discipline and mix, the driver's scheduling/respawn/sharing,
 * and the workload specs.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/core/system.h"
#include "src/workload/driver.h"
#include "src/workload/process.h"
#include "src/workload/workloads.h"

namespace spur::workload {
namespace {

class WorkloadTest : public testing::Test
{
  protected:
    WorkloadTest()
        : system_(sim::MachineConfig::Prototype(16),
                  policy::DirtyPolicyKind::kSpur,
                  policy::RefPolicyKind::kMiss)
    {
    }

    core::SpurSystem system_;
};

TEST_F(WorkloadTest, ProcessMapsItsRegions)
{
    ProcessProfile profile;
    SyntheticProcess process(system_, profile, 1);
    const auto& regions = system_.kernel().memory().regions();
    // code + data(file/output split) + heap + stack.
    EXPECT_GE(regions.NumRegions(), 4u);
    const GlobalVpn code_vpn =
        system_.ToGlobal(process.pid(), kCodeBase) >> 12;
    const vm::Region* code = regions.Find(code_vpn);
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(code->kind, vm::PageKind::kCode);
}

TEST_F(WorkloadTest, GeneratedAddressesStayInsideRegions)
{
    ProcessProfile profile;
    profile.code_pages = 8;
    profile.data_pages = 8;
    profile.heap_pages = 16;
    profile.stack_pages = 4;
    SyntheticProcess process(system_, profile, 2);
    const uint32_t page = 4096;
    for (int i = 0; i < 50000; ++i) {
        const MemRef ref = process.Next();
        const ProcessAddr a = ref.addr;
        const bool in_code = a >= kCodeBase && a < kCodeBase + 8 * page;
        const bool in_data = a >= kDataBase && a < kDataBase + 8 * page;
        const bool in_heap = a >= kHeapBase && a < kHeapBase + 16 * page;
        const bool in_stack = a >= kStackBase && a < kStackBase + 4 * page;
        ASSERT_TRUE(in_code || in_data || in_heap || in_stack)
            << std::hex << a;
        if (ref.type == AccessType::kIFetch) {
            ASSERT_TRUE(in_code) << std::hex << a;
        } else {
            ASSERT_FALSE(in_code) << std::hex << a;
        }
    }
}

TEST_F(WorkloadTest, MixApproximatesProfile)
{
    ProcessProfile profile;
    profile.frac_ifetch = 0.6;
    SyntheticProcess process(system_, profile, 3);
    uint64_t ifetches = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (process.Next().type == AccessType::kIFetch) {
            ++ifetches;
        }
    }
    EXPECT_NEAR(static_cast<double>(ifetches) / n, 0.6, 0.02);
}

TEST_F(WorkloadTest, DeterministicForSameSeed)
{
    ProcessProfile profile;
    SyntheticProcess a(system_, profile, 42);
    SyntheticProcess b(system_, profile, 42);
    for (int i = 0; i < 10000; ++i) {
        const MemRef ra = a.Next();
        const MemRef rb = b.Next();
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(static_cast<int>(ra.type), static_cast<int>(rb.type));
    }
}

TEST_F(WorkloadTest, LifetimeTerminates)
{
    ProcessProfile profile;
    profile.lifetime_refs = 1000;
    SyntheticProcess process(system_, profile, 4);
    EXPECT_FALSE(process.Done());
    for (int i = 0; i < 1000; ++i) {
        process.Next();
    }
    EXPECT_TRUE(process.Done());
}

TEST_F(WorkloadTest, DestructionFreesAddressSpace)
{
    const vm::RegionMap& regions = system_.kernel().memory().regions();
    const size_t regions_before = regions.NumRegions();
    {
        ProcessProfile profile;
        SyntheticProcess process(system_, profile, 5);
        for (int i = 0; i < 10000; ++i) {
            process.Step();
        }
        EXPECT_GT(regions.NumRegions(), regions_before);
    }
    EXPECT_EQ(regions.NumRegions(), regions_before);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

TEST_F(WorkloadTest, DriverRunsToBudget)
{
    WorkloadSpec spec;
    JobSpec job;
    job.profile.lifetime_refs = 0;
    spec.name = "test";
    spec.jobs.push_back(job);
    Driver driver(system_, spec, 100'000, 1);
    driver.Run();
    EXPECT_GE(driver.refs_issued(), 100'000u);
    EXPECT_EQ(system_.events().TotalRefs(), driver.refs_issued());
    EXPECT_EQ(driver.NumSpawns(), 1u);
}

TEST_F(WorkloadTest, DriverRespawnsFinishedJobs)
{
    WorkloadSpec spec;
    spec.name = "test";
    JobSpec job;
    job.profile.lifetime_refs = 10'000;
    job.respawn_delay_refs = 5'000;
    spec.jobs.push_back(job);
    Driver driver(system_, spec, 100'000, 1);
    driver.Run();
    // Roughly every 15k refs a new instance starts.
    EXPECT_GE(driver.NumSpawns(), 5u);
    EXPECT_LE(driver.NumSpawns(), 9u);
}

TEST_F(WorkloadTest, DriverOneShotJobsDoNotRespawn)
{
    WorkloadSpec spec;
    spec.name = "test";
    JobSpec forever;
    forever.profile.lifetime_refs = 0;
    spec.jobs.push_back(forever);
    JobSpec once;
    once.profile.lifetime_refs = 1'000;
    once.respawn_delay_refs = 0;
    spec.jobs.push_back(once);
    Driver driver(system_, spec, 50'000, 1);
    driver.Run();
    EXPECT_EQ(driver.NumSpawns(), 2u);
    EXPECT_EQ(driver.NumLive(), 1u);
}

TEST_F(WorkloadTest, DriverConcurrencySpawnsInstances)
{
    WorkloadSpec spec;
    spec.name = "test";
    JobSpec job;
    job.profile.lifetime_refs = 0;
    job.concurrency = 3;
    spec.jobs.push_back(job);
    Driver driver(system_, spec, 10'000, 1);
    driver.Run();
    EXPECT_EQ(driver.NumLive(), 3u);
}

TEST_F(WorkloadTest, DriverContextSwitchesBetweenSlices)
{
    WorkloadSpec spec;
    spec.name = "test";
    JobSpec job;
    job.profile.lifetime_refs = 0;
    job.concurrency = 2;
    spec.jobs.push_back(job);
    Driver driver(system_, spec, 100'000, 1, /*slice_refs=*/10'000);
    driver.Run();
    EXPECT_GE(system_.events().Get(sim::Event::kContextSwitch), 9u);
}

TEST_F(WorkloadTest, SharedTextReusesGlobalPages)
{
    // Two sequential incarnations of a respawning job share text: the
    // second must not re-fault the code pages the first loaded.
    WorkloadSpec spec;
    spec.name = "test";
    JobSpec job;
    job.profile.lifetime_refs = 40'000;
    job.profile.frac_ifetch = 1.0;  // Pure code execution.
    job.profile.code_pages = 8;
    job.profile.code_ws_pages = 8;
    job.respawn_delay_refs = 1'000;
    job.share_text = true;
    spec.jobs.push_back(job);
    Driver driver(system_, spec, 200'000, 1);
    driver.Run();
    EXPECT_GE(driver.NumSpawns(), 3u);
    // Code is 8 pages; with sharing, page faults stay near 8 instead of
    // 8 per incarnation.
    EXPECT_LE(system_.events().Get(sim::Event::kPageFault), 10u);
}

TEST_F(WorkloadTest, PrivateTextRefaultsPerIncarnation)
{
    WorkloadSpec spec;
    spec.name = "test";
    JobSpec job;
    job.profile.lifetime_refs = 40'000;
    job.profile.frac_ifetch = 1.0;
    job.profile.code_pages = 8;
    job.profile.code_ws_pages = 8;
    job.respawn_delay_refs = 1'000;
    job.share_text = false;
    spec.jobs.push_back(job);
    Driver driver(system_, spec, 200'000, 1);
    driver.Run();
    EXPECT_GE(system_.events().Get(sim::Event::kPageFault),
              8u * driver.NumSpawns() / 2);
}

// ---------------------------------------------------------------------------
// Workload specs
// ---------------------------------------------------------------------------

TEST(WorkloadSpecsTest, Workload1Structure)
{
    const WorkloadSpec spec = MakeWorkload1();
    EXPECT_EQ(spec.name, "WORKLOAD1");
    EXPECT_GE(spec.jobs.size(), 6u);  // espresso, cc, ld, dbx, edit, 2 mon.
    // Exactly one background job runs forever from the start.
    int forever = 0;
    for (const JobSpec& job : spec.jobs) {
        if (job.profile.lifetime_refs == 0) {
            ++forever;
        }
    }
    EXPECT_EQ(forever, 1);
}

TEST(WorkloadSpecsTest, SlcStructure)
{
    const WorkloadSpec spec = MakeSlc();
    EXPECT_EQ(spec.name, "SLC");
    EXPECT_EQ(spec.jobs.size(), 2u);
    EXPECT_EQ(spec.jobs[0].profile.lifetime_refs, 0u);  // The Lisp system.
    EXPECT_GT(spec.jobs[1].respawn_delay_refs, 0u);     // Compile stream.
}

TEST(WorkloadSpecsTest, DevMachineScalesWithIntensity)
{
    const WorkloadSpec small = MakeDevMachine(0.5);
    const WorkloadSpec big = MakeDevMachine(2.0);
    EXPECT_GT(big.jobs[0].profile.heap_pages,
              small.jobs[0].profile.heap_pages);
}

TEST(WorkloadSpecsTest, AllProfilesHavePositiveWeights)
{
    for (const WorkloadSpec& spec :
         {MakeWorkload1(), MakeSlc(), MakeDevMachine(1.0)}) {
        for (const JobSpec& job : spec.jobs) {
            const ProcessProfile& p = job.profile;
            const double total = p.w_seq_read + p.w_seq_write + p.w_rmw +
                                 p.w_scan_update + p.w_rand +
                                 p.w_file_write;
            EXPECT_GT(total, 0.0) << spec.name << "/" << p.name;
            EXPECT_GT(p.frac_ifetch, 0.0);
            EXPECT_LT(p.frac_ifetch, 1.0);
            EXPECT_GT(p.code_pages, 0u);
        }
    }
}

}  // namespace
}  // namespace spur::workload
