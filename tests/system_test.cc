/**
 * @file
 * Integration tests for SpurSystem: the full access path through cache,
 * in-cache translation, VM and policies, including the Figure 3.1
 * scenario end-to-end, the FLUSH redo path, and system-level
 * invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/check/report.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/core/system.h"
#include "src/pt/segment_map.h"
#include "src/workload/driver.h"
#include "src/workload/process.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"
#include "tests/auditing_host.h"

namespace spur::core {
namespace {

using policy::DirtyPolicyKind;
using policy::kAllDirtyPolicies;
using policy::kAllRefPolicies;
using policy::RefPolicyKind;
using workload::kCodeBase;
using workload::kDataBase;
using workload::kHeapBase;

class SystemTest : public testing::Test
{
  protected:
    void Build(DirtyPolicyKind dirty = DirtyPolicyKind::kSpur,
               RefPolicyKind ref = RefPolicyKind::kMiss)
    {
        system_ = std::make_unique<SpurSystem>(
            sim::MachineConfig::Prototype(8), dirty, ref);
        pid_ = system_->CreateProcess();
        system_->MapRegion(pid_, kHeapBase,
                           64 * system_->config().page_bytes,
                           vm::PageKind::kHeap);
        system_->MapRegion(pid_, kCodeBase,
                           16 * system_->config().page_bytes,
                           vm::PageKind::kCode);
    }

    std::unique_ptr<SpurSystem> system_;
    Pid pid_ = 0;
};

TEST(SpurSystemDeathTest, RejectsACacheLargerThanASegment)
{
    // The batch loop indexes the cache from the process address, which
    // holds only while the whole cache fits below the segment shift.
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    config.cache_bytes = pt::kSegmentBytes * 2;
    EXPECT_EXIT(SpurSystem(config, DirtyPolicyKind::kSpur,
                           RefPolicyKind::kMiss),
                testing::ExitedWithCode(1), "exceeds one segment");
}

TEST_F(SystemTest, ColdReadMissesThenHits)
{
    Build();
    system_->Access(pid_, kHeapBase, AccessType::kRead);
    const auto& ev = system_->events();
    EXPECT_EQ(ev.Get(sim::Event::kRead), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kReadMiss), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kPageFault), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kZeroFill), 1u);

    system_->Access(pid_, kHeapBase + 4, AccessType::kRead);
    EXPECT_EQ(ev.Get(sim::Event::kReadMiss), 1u);  // Same block: hit.
    EXPECT_EQ(ev.Get(sim::Event::kRead), 2u);
}

TEST_F(SystemTest, IFetchPathCounts)
{
    Build();
    system_->Access(pid_, kCodeBase, AccessType::kIFetch);
    EXPECT_EQ(system_->events().Get(sim::Event::kIFetch), 1u);
    EXPECT_EQ(system_->events().Get(sim::Event::kIFetchMiss), 1u);
    system_->Access(pid_, kCodeBase, AccessType::kIFetch);
    EXPECT_EQ(system_->events().Get(sim::Event::kIFetchMiss), 1u);
}

TEST_F(SystemTest, WriteMissFillCountsAndDirtyFault)
{
    Build();
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    const auto& ev = system_->events();
    EXPECT_EQ(ev.Get(sim::Event::kWriteMiss), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kWriteMissFill), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFaultZfod), 1u);  // Fresh zfod page.
    EXPECT_EQ(ev.Get(sim::Event::kWriteHitCleanBlock), 0u);
}

TEST_F(SystemTest, WriteHitOnReadBlockCountsWHit)
{
    Build();
    system_->Access(pid_, kHeapBase, AccessType::kRead);
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    const auto& ev = system_->events();
    EXPECT_EQ(ev.Get(sim::Event::kWriteHitCleanBlock), 1u);
    // A second write to the same (now dirty) block does not count again.
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    EXPECT_EQ(ev.Get(sim::Event::kWriteHitCleanBlock), 1u);
}

TEST_F(SystemTest, Figure31EndToEndUnderFaultPolicy)
{
    Build(DirtyPolicyKind::kFault);
    const uint64_t block = system_->config().block_bytes;
    // Two blocks cached while the page is clean (read-only protection).
    system_->Access(pid_, kHeapBase, AccessType::kRead);
    system_->Access(pid_, kHeapBase + block, AccessType::kRead);
    // First write: necessary fault.
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    const auto& ev = system_->events();
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kExcessFault), 0u);
    // Second block still carries stale read-only protection: excess fault.
    system_->Access(pid_, kHeapBase + block, AccessType::kWrite);
    EXPECT_EQ(ev.Get(sim::Event::kExcessFault), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFault), 1u);
    // Subsequent writes proceed without faults.
    system_->Access(pid_, kHeapBase + block, AccessType::kWrite);
    EXPECT_EQ(ev.Get(sim::Event::kExcessFault), 1u);
}

TEST_F(SystemTest, Figure31EndToEndUnderSpurPolicy)
{
    Build(DirtyPolicyKind::kSpur);
    const uint64_t block = system_->config().block_bytes;
    system_->Access(pid_, kHeapBase, AccessType::kRead);
    system_->Access(pid_, kHeapBase + block, AccessType::kRead);
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    system_->Access(pid_, kHeapBase + block, AccessType::kWrite);
    const auto& ev = system_->events();
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kDirtyBitMiss), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kExcessFault), 0u);
}

TEST_F(SystemTest, FlushPolicyRedoesWriteAsMiss)
{
    Build(DirtyPolicyKind::kFlush);
    const uint64_t block = system_->config().block_bytes;
    system_->Access(pid_, kHeapBase, AccessType::kRead);
    system_->Access(pid_, kHeapBase + block, AccessType::kRead);
    // The write hits a stale read-only line; the handler flushes the
    // page; the store re-executes as a miss and refills read-write.
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    const auto& ev = system_->events();
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFault), 1u);
    EXPECT_EQ(ev.Get(sim::Event::kWriteMissFill), 1u);
    // The block is present, dirty, and read-write after the redo.
    const cache::ConstLineRef line =
        system_->vcache().Lookup(system_->ToGlobal(pid_, kHeapBase));
    ASSERT_TRUE(line);
    EXPECT_TRUE(line.block_dirty());
    EXPECT_EQ(line.prot(), Protection::kReadWrite);
    // The other previously cached block was flushed: no excess possible.
    EXPECT_FALSE(system_->vcache().Lookup(
        system_->ToGlobal(pid_, kHeapBase + block)));
    // Writing it refetches with read-write protection and no fault.
    system_->Access(pid_, kHeapBase + block, AccessType::kWrite);
    EXPECT_EQ(ev.Get(sim::Event::kExcessFault), 0u);
    EXPECT_EQ(ev.Get(sim::Event::kDirtyFault), 1u);
}

TEST_F(SystemTest, CacheHitImpliesResidentPage)
{
    // Invariant behind ResidentPte(): any cached line belongs to a
    // resident page, because reclaim flushes.
    Build();
    for (int i = 0; i < 32; ++i) {
        system_->Access(pid_,
                        kHeapBase + i * system_->config().page_bytes,
                        AccessType::kWrite);
    }
    const auto& vcache = system_->vcache();
    const auto& table = system_->kernel().page_table();
    for (uint64_t index = 0; index < vcache.NumLines(); ++index) {
        const cache::Line& line = vcache.LineAt(index);
        if (!line.valid()) {
            continue;
        }
        const GlobalAddr addr = vcache.BlockAddrOf(index, line);
        if (pt::PageTable::IsPteAddr(addr)) {
            continue;  // PTE blocks are backed by wired table pages.
        }
        const pt::Pte* pte =
            table.Find(addr >> system_->config().PageShift());
        ASSERT_NE(pte, nullptr);
        EXPECT_TRUE(pte->valid());
    }
}

TEST_F(SystemTest, SharedSegmentIsOneGlobalAddress)
{
    Build();
    const Pid other = system_->CreateProcess();
    system_->ShareSegment(other, 2, pid_, 2);  // kHeapBase is segment 2.
    EXPECT_EQ(system_->ToGlobal(pid_, kHeapBase),
              system_->ToGlobal(other, kHeapBase));
    // A write by one process hits the same cache line for the other: no
    // synonyms, no coherence problem.
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    const auto misses_before = system_->events().TotalMisses();
    system_->Access(other, kHeapBase, AccessType::kRead);
    EXPECT_EQ(system_->events().TotalMisses(), misses_before);
    system_->DestroyProcess(other);
}

TEST_F(SystemTest, DestroyProcessFreesPages)
{
    Build();
    const mem::FrameTable& frames = system_->kernel().memory().frames();
    const uint32_t free_before = frames.NumFree();
    for (int i = 0; i < 16; ++i) {
        system_->Access(pid_,
                        kHeapBase + i * system_->config().page_bytes,
                        AccessType::kWrite);
    }
    EXPECT_EQ(frames.NumFree(), free_before - 16);
    system_->DestroyProcess(pid_);
    EXPECT_EQ(frames.NumFree(), free_before);
    // Teardown ends with the switch away from the dead process.
    EXPECT_EQ(system_->events().Get(sim::Event::kContextSwitch), 1u);
}

TEST_F(SystemTest, ContextSwitchAccounting)
{
    Build();
    system_->OnContextSwitch();
    system_->OnContextSwitch();
    EXPECT_EQ(system_->events().Get(sim::Event::kContextSwitch), 2u);
    EXPECT_EQ(system_->timing().Get(sim::TimeBucket::kKernel),
              2 * system_->config().t_context_switch);
}

TEST_F(SystemTest, TimingAccumulatesAcrossPath)
{
    Build();
    system_->Access(pid_, kHeapBase, AccessType::kWrite);
    const auto& timing = system_->timing();
    EXPECT_GT(timing.Get(sim::TimeBucket::kXlate), 0u);
    EXPECT_GT(timing.Get(sim::TimeBucket::kMissStall), 0u);
    EXPECT_GT(timing.Get(sim::TimeBucket::kFault), 0u);
    EXPECT_GT(timing.ElapsedSeconds(), 0.0);
}

TEST_F(SystemTest, RefFaultAfterDaemonClear)
{
    // Exercise the MISS policy's fault-to-set-bit through the system: a
    // page whose R bit is cleared re-faults on its next cache miss.
    Build();
    system_->Access(pid_, kHeapBase, AccessType::kRead);
    EXPECT_EQ(system_->events().Get(sim::Event::kRefFault), 0u);
    // (Daemon clears are exercised by the VM tests and full runs; here we
    // verify no spurious ref faults occur while the bit stays set.)
    for (int i = 0; i < 100; ++i) {
        system_->Access(pid_, kHeapBase + i * 32, AccessType::kRead);
    }
    EXPECT_EQ(system_->events().Get(sim::Event::kRefFault), 0u);
}

TEST_F(SystemTest, MapRegionValidation)
{
    Build();
    EXPECT_EXIT(system_->MapRegion(pid_, kDataBase + 1, 4096,
                                   vm::PageKind::kData),
                testing::ExitedWithCode(1), "aligned");
    EXPECT_EXIT(system_->MapRegion(pid_, kDataBase, 100,
                                   vm::PageKind::kData),
                testing::ExitedWithCode(1), "aligned");
    EXPECT_EXIT(system_->MapRegion(99, kDataBase, 4096,
                                   vm::PageKind::kData),
                testing::ExitedWithCode(1), "unknown pid");
}

TEST_F(SystemTest, InCacheTranslationSharesPteBlocks)
{
    Build();
    // Touch 8 consecutive pages: their PTEs share one cache block, so
    // only the first translation takes a second-level access.
    const auto& ev = system_->events();
    for (int i = 0; i < 8; ++i) {
        system_->Access(pid_,
                        kHeapBase + i * system_->config().page_bytes,
                        AccessType::kRead);
    }
    // At least most translations hit the shared PTE block; occasionally
    // a data fill evicts it (PTEs genuinely compete for cache space).
    EXPECT_GE(ev.Get(sim::Event::kXlatePteHit), 5u);
}

// ---------------------------------------------------------------------------
// AccessBatch against Access: the batch loop's fast path (settled write
// hits, packed type counts, per-segment tag bases) must leave exactly
// the events and cycles of the per-reference path, and a machine that
// passes every invariant audit along the way.
// ---------------------------------------------------------------------------

/**
 * Forwards every operation to a SpurSystem but re-cuts the reference
 * stream: the references between two other operations go to
 * AccessBatch in pieces of at most `batch`, or one by one through
 * Access when `batch` is 0.  The host contract makes every cut
 * equivalent.
 */
class RebatchingHost final : public workload::WorkloadHost
{
  public:
    RebatchingHost(SpurSystem& system, size_t batch)
        : system_(system), batch_(batch)
    {
    }

    Pid CreateProcess() override
    {
        Flush();
        return system_.CreateProcess();
    }
    void DestroyProcess(Pid pid) override
    {
        Flush();
        system_.DestroyProcess(pid);
    }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override
    {
        Flush();
        system_.MapRegion(pid, base, bytes, kind);
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override
    {
        Flush();
        system_.ShareSegment(pid, reg, other, other_reg);
    }
    void Access(const MemRef& ref) override { pending_.push_back(ref); }
    void AccessBatch(const MemRef* refs, size_t n) override
    {
        pending_.insert(pending_.end(), refs, refs + n);
    }
    void OnContextSwitch() override
    {
        Flush();
        system_.OnContextSwitch();
    }
    const sim::MachineConfig& config() const override
    {
        return system_.config();
    }

    /** Issues the held references. */
    void Flush()
    {
        if (batch_ == 0) {
            for (const MemRef& ref : pending_) {
                system_.Access(ref);
            }
        } else {
            for (size_t i = 0; i < pending_.size(); i += batch_) {
                system_.AccessBatch(pending_.data() + i,
                                    std::min(batch_, pending_.size() - i));
            }
        }
        pending_.clear();
    }

  private:
    SpurSystem& system_;
    size_t batch_;
    std::vector<MemRef> pending_;
};

/** Every event count and every time bucket of @p system. */
std::vector<uint64_t>
Totals(const SpurSystem& system)
{
    std::vector<uint64_t> totals;
    for (size_t i = 0; i < sim::kNumEvents; ++i) {
        totals.push_back(system.events().Get(static_cast<sim::Event>(i)));
    }
    for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
        totals.push_back(
            system.timing().Get(static_cast<sim::TimeBucket>(i)));
    }
    return totals;
}

/** @p id's stream of @p refs references at seed 1, recorded through a
 *  CountingHost as `spur_trace record` records it. */
std::string
RecordStream(core::WorkloadId id, uint64_t refs)
{
    core::RunConfig config;
    config.workload = id;
    config.refs = refs;
    config.seed = 1;
    workload::CountingHost counting(sim::MachineConfig::Prototype(8));
    return core::RecordLiveStream(config, counting).bytes;
}

/** Totals after replaying @p stream on a fresh machine, its references
 *  cut into batches of @p batch (0: one Access per reference).  The
 *  batch side (@p batch > 0) audits the machine at every context switch
 *  and at the end. */
std::vector<uint64_t>
ReplayTotals(const workload::TraceStream& stream, uint32_t mem_mb,
             DirtyPolicyKind dirty, RefPolicyKind ref, size_t batch)
{
    SpurSystem system(sim::MachineConfig::Prototype(mem_mb), dirty, ref);
    RebatchingHost host(system, batch);
    if (batch == 0) {
        workload::ReplayStream(stream, host);
        host.Flush();
        return Totals(system);
    }
    testing_support::AuditingHost audited(host, system.kernel());
    workload::ReplayStream(stream, audited);
    host.Flush();
    EXPECT_GT(audited.audits(), 0u) << "batch " << batch;
    EXPECT_EQ(audited.first_failure(), "") << "batch " << batch;
    const check::AuditReport report = system.kernel().Audit();
    EXPECT_TRUE(report.ok()) << "batch " << batch << ", at the end: "
                             << report.Summary();
    return Totals(system);
}

TEST_F(SystemTest, AccessBatchMatchesAccessForEveryPolicyPair)
{
    // 600,000 gc-sweep references page at 5 MB (page-outs, reference
    // faults under REF), so the daemon's flushes interleave the batches.
    const std::string file = workload::EncodeTraceFile(
        {RecordStream(core::WorkloadId::kWorkload1, 400'000),
         RecordStream(core::WorkloadId::kGcSweep, 600'000)});
    std::string error;
    const std::optional<workload::RecoveredTrace> trace =
        workload::RecoverTraceBytes(file, &error);
    ASSERT_TRUE(trace.has_value()) << error;
    ASSERT_EQ(trace->streams.size(), 2u);

    for (const workload::TraceStream& stream : trace->streams) {
        for (const uint32_t mem_mb : {5u, 8u}) {
            for (const DirtyPolicyKind dirty : kAllDirtyPolicies) {
                for (const RefPolicyKind ref : kAllRefPolicies) {
                    SCOPED_TRACE(stream.meta.workload + " " +
                                 std::to_string(mem_mb) + " MB " +
                                 policy::ToString(dirty) + "/" +
                                 policy::ToString(ref));
                    const std::vector<uint64_t> want =
                        ReplayTotals(stream, mem_mb, dirty, ref, 0);
                    for (const size_t batch : {1u, 7u, 4096u, 20000u}) {
                        EXPECT_EQ(ReplayTotals(stream, mem_mb, dirty, ref,
                                               batch),
                                  want)
                            << "batch " << batch;
                    }
                }
            }
        }
    }

    // One batch longer than a packed type-count field holds (2^21 - 1):
    // 2^21 instruction fetches, so a chunk one reference too long
    // carries into the read count, then five writes.  Two processes
    // alternate every 2^16 references so the tag bases reload inside
    // the batch.
    constexpr size_t kLong = (size_t{1} << 21) + 5;
    const uint32_t page = sim::MachineConfig::Prototype(8).page_bytes;
    for (const DirtyPolicyKind dirty : kAllDirtyPolicies) {
        SCOPED_TRACE(std::string("long batch ") + policy::ToString(dirty));
        std::vector<uint64_t> totals[2];
        for (int side = 0; side < 2; ++side) {
            SpurSystem system(sim::MachineConfig::Prototype(8), dirty,
                              RefPolicyKind::kMiss);
            Pid pids[2];
            for (Pid& pid : pids) {
                pid = system.CreateProcess();
                system.MapRegion(pid, kCodeBase, 64 * page,
                                 vm::PageKind::kCode);
                system.MapRegion(pid, kHeapBase, 8 * page,
                                 vm::PageKind::kHeap);
            }
            std::vector<MemRef> refs(kLong);
            for (size_t i = 0; i < kLong; ++i) {
                const Pid pid = pids[(i >> 16) & 1];
                refs[i] = i >= (size_t{1} << 21)
                              ? MemRef{pid,
                                       static_cast<ProcessAddr>(
                                           kHeapBase + (i & 7) * page),
                                       AccessType::kWrite}
                              : MemRef{pid,
                                       static_cast<ProcessAddr>(
                                           kCodeBase + (i * 4) % (64 * page)),
                                       AccessType::kIFetch};
            }
            if (side == 0) {
                for (const MemRef& ref : refs) {
                    system.Access(ref);
                }
                EXPECT_EQ(system.events().Get(sim::Event::kIFetch),
                          uint64_t{1} << 21);
                EXPECT_EQ(system.events().Get(sim::Event::kWrite), 5u);
            } else {
                system.AccessBatch(refs.data(), refs.size());
            }
            totals[side] = Totals(system);
        }
        EXPECT_EQ(totals[1], totals[0]);
    }
}

// ---------------------------------------------------------------------------
// Whole-stream counts the unit tests below the system do not reach.
// ---------------------------------------------------------------------------

/** Event::kWriteback after @p refs live references of @p spec (seed 1)
 *  on a @p mem_mb machine, read before the driver's teardown. */
uint64_t
LiveWritebacks(workload::WorkloadSpec spec, uint64_t refs, uint32_t mem_mb,
               DirtyPolicyKind dirty)
{
    SpurSystem system(sim::MachineConfig::Prototype(mem_mb), dirty,
                      RefPolicyKind::kMiss);
    const uint32_t slice_refs = spec.slice_refs;
    workload::Driver driver(system, std::move(spec), refs, /*seed=*/1,
                            slice_refs);
    driver.Run();
    return system.events().Get(sim::Event::kWriteback);
}

TEST_F(SystemTest, WritebackCountsArePinned)
{
    // A miss that displaces a block-dirty line writes it back, and only
    // such a miss: a clean victim counted as a write-back doubles that
    // miss's stall charge and shows here.  Pinned per dirty policy, in
    // kAllDirtyPolicies order.  gc-sweep pages at 5 MB, so its counts
    // there hold the page-out flushes' write-backs too.
    struct Pin {
        const char* name;
        workload::WorkloadSpec (*make)();
        uint64_t refs;
        uint32_t mem_mb;
        uint64_t writebacks[std::size(kAllDirtyPolicies)];
    };
    const Pin pins[] = {
        {"WORKLOAD1", workload::MakeWorkload1, 400'000, 5,
         {9603, 9603, 9603, 9603, 9603, 9603, 9603}},
        {"WORKLOAD1", workload::MakeWorkload1, 400'000, 8,
         {9603, 9603, 9603, 9603, 9603, 9603, 9603}},
        {"gc-sweep", workload::MakeGcSweep, 600'000, 5,
         {15772, 15772, 15773, 15772, 15772, 15772, 15772}},
        {"gc-sweep", workload::MakeGcSweep, 600'000, 8,
         {15767, 15767, 15768, 15767, 15767, 15767, 15767}},
    };
    for (const Pin& pin : pins) {
        for (size_t i = 0; i < std::size(kAllDirtyPolicies); ++i) {
            SCOPED_TRACE(std::string(pin.name) + " " +
                         std::to_string(pin.mem_mb) + " MB " +
                         policy::ToString(kAllDirtyPolicies[i]));
            EXPECT_EQ(LiveWritebacks(pin.make(), pin.refs, pin.mem_mb,
                                     kAllDirtyPolicies[i]),
                      pin.writebacks[i]);
        }
    }
}

/**
 * Forwards every operation to a SpurSystem and records its Totals
 * right after reference number `at`, splitting the batch that holds
 * it: the first `at` references of a longer run, seen exactly as a run
 * of `at` references sees them.
 */
class PrefixHost final : public workload::WorkloadHost
{
  public:
    PrefixHost(SpurSystem& system, uint64_t at) : system_(system), at_(at)
    {
    }

    Pid CreateProcess() override { return system_.CreateProcess(); }
    void DestroyProcess(Pid pid) override { system_.DestroyProcess(pid); }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override
    {
        system_.MapRegion(pid, base, bytes, kind);
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override
    {
        system_.ShareSegment(pid, reg, other, other_reg);
    }
    void Access(const MemRef& ref) override { AccessBatch(&ref, 1); }
    void AccessBatch(const MemRef* refs, size_t n) override
    {
        const size_t head =
            (seen_ < at_) ? static_cast<size_t>(std::min<uint64_t>(
                                n, at_ - seen_))
                          : 0;
        system_.AccessBatch(refs, head);
        seen_ += head;
        if (head != 0 && seen_ == at_) {
            at_totals_ = Totals(system_);
            cut_ = head < n;
        }
        system_.AccessBatch(refs + head, n - head);
        seen_ += n - head;
    }
    void OnContextSwitch() override { system_.OnContextSwitch(); }
    const sim::MachineConfig& config() const override
    {
        return system_.config();
    }

    /** Totals after reference `at` (empty if the run stopped short). */
    const std::vector<uint64_t>& at_totals() const { return at_totals_; }

    /** Whether reference `at` fell inside a batch, which was cut there. */
    bool cut() const { return cut_; }

  private:
    SpurSystem& system_;
    uint64_t at_;
    uint64_t seen_ = 0;
    std::vector<uint64_t> at_totals_;
    bool cut_ = false;
};

TEST_F(SystemTest, DriverRunIsAPrefixOfALongerRun)
{
    // A run of B references must see what the first B references of a
    // run of 2B see: the generator, the scheduler and the machine take
    // no input from the budget but where the driver stops.  B falls
    // inside a quantum of the longer run, so there the decorator cuts
    // the batch the shorter run's last quantum ends.  By B both
    // workloads page at 5 MB, so page-ins, page-outs and the daemon's
    // sweeps are in the comparison.
    constexpr uint64_t kB = 2'013'000;
    const struct {
        const char* name;
        workload::WorkloadSpec (*make)();
    } workloads[] = {{"WORKLOAD1", workload::MakeWorkload1},
                     {"SLC", workload::MakeSlc}};
    const sim::MachineConfig machine = sim::MachineConfig::Prototype(5);
    for (const auto& w : workloads) {
        for (const RefPolicyKind ref : kAllRefPolicies) {
            SCOPED_TRACE(std::string(w.name) + " " + policy::ToString(ref));
            std::vector<uint64_t> at_b[2];
            std::vector<uint64_t> end_of_b;
            for (int side = 0; side < 2; ++side) {
                const uint64_t budget = (side == 0) ? kB : 2 * kB;
                SpurSystem system(machine, DirtyPolicyKind::kSpur, ref);
                PrefixHost host(system, kB);
                workload::WorkloadSpec spec = w.make();
                const uint32_t slice_refs = spec.slice_refs;
                workload::Driver driver(host, std::move(spec), budget,
                                        /*seed=*/1, slice_refs);
                driver.Run();
                ASSERT_EQ(driver.refs_issued(), budget);
                at_b[side] = host.at_totals();
                if (side == 0) {
                    end_of_b = Totals(system);
                } else {
                    EXPECT_TRUE(host.cut());
                }
            }
            ASSERT_FALSE(at_b[0].empty());
            EXPECT_GT(
                at_b[0][static_cast<size_t>(sim::Event::kDaemonSweep)], 0u);
            EXPECT_EQ(at_b[0], at_b[1]);

            // Where the property stops: the shorter run ends its last,
            // truncated quantum with a context switch, which the longer
            // run, still inside that quantum at B, has not made.  A
            // result read at the end of the run (core::RunOnce reads
            // there) is the prefix plus one context switch.
            std::vector<uint64_t> want = at_b[1];
            want[static_cast<size_t>(sim::Event::kContextSwitch)] += 1;
            want[sim::kNumEvents +
                 static_cast<size_t>(sim::TimeBucket::kKernel)] +=
                machine.t_context_switch;
            EXPECT_EQ(end_of_b, want);
        }
    }
}

}  // namespace
}  // namespace spur::core
