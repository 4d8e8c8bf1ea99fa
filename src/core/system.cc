// spur:hot-path
#include "src/core/system.h"

#include <string>

#include "src/common/log.h"
#include "src/policy/policy_ops.h"

namespace spur::core {

SpurSystem::SpurSystem(const sim::MachineConfig& config,
                       policy::DirtyPolicyKind dirty,
                       policy::RefPolicyKind ref)
    : config_(config),
      timing_(config_),
      vcache_(config_),
      xlate_(vcache_, table_, config_),
      dirty_(policy::MakeDirtyPolicy(dirty, vcache_, config_)),
      ref_(policy::MakeRefPolicy(ref, vcache_, config_)),
      block_fetch_cycles_(config_.BlockFetchCycles())
{
    config_.Validate();
    vm_ = std::make_unique<vm::VirtualMemory>(config_, table_, vcache_,
                                              events_, timing_);
    vm_->SetPolicies(dirty_.get(), ref_.get());
    SelectDispatch();
}

SpurSystem::~SpurSystem() = default;

Pid
SpurSystem::CreateProcess()
{
    const Pid pid = segmap_.CreateProcess();
    process_regions_[pid];
    return pid;
}

void
SpurSystem::DestroyProcess(Pid pid)
{
    auto it = process_regions_.find(pid);
    if (it == process_regions_.end()) {
        Fatal("SpurSystem: destroying unknown pid " + std::to_string(pid));
    }
    for (const auto& [base, start_vpn] : it->second) {
        vm_->UnmapRegion(start_vpn);
    }
    process_regions_.erase(it);
    segmap_.DestroyProcess(pid);
    OnContextSwitch();
}

void
SpurSystem::MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                      vm::PageKind kind)
{
    const uint64_t page_bytes = config_.page_bytes;
    if (base % page_bytes != 0 || bytes == 0 || bytes % page_bytes != 0) {
        Fatal("SpurSystem: region must be page aligned and nonempty");
    }
    auto it = process_regions_.find(pid);
    if (it == process_regions_.end()) {
        Fatal("SpurSystem: MapRegion on unknown pid " + std::to_string(pid));
    }
    const GlobalAddr gva = segmap_.ToGlobal(pid, base);
    const GlobalVpn start = gva >> config_.PageShift();
    vm_->MapRegion(start, bytes / page_bytes, kind);
    it->second.emplace(base, start);
}

void
SpurSystem::UnmapRegion(Pid pid, ProcessAddr base)
{
    auto it = process_regions_.find(pid);
    if (it == process_regions_.end()) {
        Fatal("SpurSystem: UnmapRegion on unknown pid " +
              std::to_string(pid));
    }
    auto region_it = it->second.find(base);
    if (region_it == it->second.end()) {
        Fatal("SpurSystem: no region mapped at this base");
    }
    vm_->UnmapRegion(region_it->second);
    it->second.erase(region_it);
}

// ---------------------------------------------------------------------------
// The devirtualized hot path.  One AccessImpl instantiation exists per
// (dirty policy, ref policy, observer attached) configuration; the policy
// hooks inline from policy_ops.h and the event sink's observer check is
// resolved by the kObserved parameter.  The bodies below must stay
// semantically identical to the virtual-policy path (same events in the
// same order, same cycle charges): the policy ops are the shared source
// of truth, and tests/golden outputs pin the equivalence.
// ---------------------------------------------------------------------------

namespace {

// The reference-type events and their miss counterparts mirror the
// AccessType encoding, so the per-reference classification is a single
// indexed counter add instead of a data-dependent (mispredict-prone)
// three-way branch.
constexpr unsigned kMissEventOffset =
    static_cast<unsigned>(sim::Event::kIFetchMiss) -
    static_cast<unsigned>(sim::Event::kIFetch);
static_assert(static_cast<unsigned>(sim::Event::kIFetch) ==
              static_cast<unsigned>(AccessType::kIFetch));
static_assert(static_cast<unsigned>(sim::Event::kRead) ==
              static_cast<unsigned>(AccessType::kRead));
static_assert(static_cast<unsigned>(sim::Event::kWrite) ==
              static_cast<unsigned>(AccessType::kWrite));
static_assert(static_cast<unsigned>(sim::Event::kReadMiss) ==
              static_cast<unsigned>(AccessType::kRead) + kMissEventOffset);
static_assert(static_cast<unsigned>(sim::Event::kWriteMiss) ==
              static_cast<unsigned>(AccessType::kWrite) + kMissEventOffset);

inline sim::Event
RefEvent(AccessType type)
{
    return static_cast<sim::Event>(static_cast<unsigned>(type));
}

inline sim::Event
MissEvent(AccessType type)
{
    return static_cast<sim::Event>(static_cast<unsigned>(type) +
                                   kMissEventOffset);
}

}  // namespace

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R, bool kObserved>
void
SpurSystem::WriteHitSlow(cache::LineRef line, GlobalAddr gva)
{
    sim::EventSink<kObserved> events(events_);
    const policy::DirtyCost cost = policy::DirtyOps<D>::OnWriteHit(
        line, gva, ResidentPte(gva), events, vcache_, config_);
    ChargeDirty(cost);
    if (cost.line_invalidated) {
        // FLUSH purged the written line inside the fault handler; the
        // store re-executes as a cache miss and refills the block
        // under the page's new protection.
        AccessMissImpl<D, R, kObserved>(gva, AccessType::kWrite);
        return;
    }
    line.MarkWritten();
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R, bool kObserved>
void
SpurSystem::AccessImpl(const MemRef& ref)
{
    if constexpr (check::kAuditEnabled) {
        if (--audit_countdown_ == 0) {
            audit_countdown_ = check::kAuditAccessInterval;
            Audit().RaiseIfFailed("SpurSystem::Access (periodic)");
        }
    }

    sim::EventSink<kObserved> events(events_);
    const GlobalAddr gva = segmap_.ToGlobal(ref.pid, ref.addr);
    events.Add(RefEvent(ref.type));

    cache::LineRef line = vcache_.Lookup(gva);
    if (line) {
        timing_.Charge(sim::TimeBucket::kExecute, config_.t_cache_hit);
        if (ref.type != AccessType::kWrite) {
            return;
        }
        // First write to a block that arrived via a read/fetch: this is
        // the N_w-hit population of Table 3.3.
        if (!line.block_dirty()) {
            events.Add(sim::Event::kWriteHitCleanBlock);
        }
        if (policy::DirtyOps<D>::WriteHitFastPath(line)) {
            line.MarkWritten();
            return;
        }
        WriteHitSlow<D, R, kObserved>(line, gva);
        return;
    }

    events.Add(MissEvent(ref.type));
    AccessMissImpl<D, R, kObserved>(gva, ref.type);
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R, bool kObserved>
void
SpurSystem::AccessMissImpl(GlobalAddr gva, AccessType type)
{
    sim::EventSink<kObserved> events(events_);
    // In-cache translation: find the PTE (possibly faulting the page in).
    xlate::XlateResult xr = xlate_.Translate(gva, events_);
    timing_.Charge(sim::TimeBucket::kXlate, xr.cycles);
    pt::Pte* pte = xr.pte;
    if (!pte->valid()) {
        pte = &vm_->HandlePageFault(gva);
    }

    // Reference bit: the controller checks R while it has the PTE.
    const policy::RefCost ref_cost =
        policy::RefOps<R>::OnCacheMiss(*pte, events, config_);
    timing_.Charge(sim::TimeBucket::kFault, ref_cost.fault_cycles);

    // Dirty bit: a write miss checks the dirty state before the fill.
    if (type == AccessType::kWrite) {
        ChargeDirty(policy::DirtyOps<D>::OnWriteMiss(gva, *pte, events,
                                                     vcache_, config_));
    }

    // Fill the block, copying PR and the page dirty bit from the PTE into
    // the cache line (Figure 3.2).
    cache::Eviction eviction;
    cache::LineRef line =
        vcache_.Fill(gva, pte->protection(), pte->dirty(), &eviction);
    if (eviction.writeback) {
        events.Add(sim::Event::kWriteback);
        timing_.Charge(sim::TimeBucket::kMissStall, block_fetch_cycles_);
    }
    timing_.Charge(sim::TimeBucket::kMissStall, block_fetch_cycles_);

    if (type == AccessType::kWrite) {
        events.Add(sim::Event::kWriteMissFill);
        cache::VirtualCache::MarkWritten(line);
    }
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R, bool kObserved>
void
SpurSystem::AccessBatchImpl(const MemRef* refs, size_t n)
{
    if constexpr (check::kAuditEnabled || kObserved) {
        // Audit builds need the per-reference countdown and observers
        // need every event mirrored in issue order: run the plain loop.
        for (size_t i = 0; i < n; ++i) {
            AccessImpl<D, R, kObserved>(refs[i]);
        }
    } else if (config_.cache_bytes > pt::kSegmentBytes) {
        // Exotic configuration (cache larger than a segment): the
        // index-from-process-address trick below is unsound, so keep the
        // plain per-reference loop.
        for (size_t i = 0; i < n; ++i) {
            AccessImpl<D, R, kObserved>(refs[i]);
        }
    } else {
        // Unobserved: every event add is a plain commutative counter
        // increment and nothing can see the machine between the batch's
        // references, so the per-reference type counts and hit cycles
        // accumulate in registers and flush once at the end.  Final
        // events/timing state is bit-identical to the loop above; state
        // mutation (cache, PTEs, VM) still happens strictly in order.
        sim::EventSink<false> events(events_);
        const Cycles t_hit = config_.t_cache_hit;
        // Raw SoA view and geometry in locals: the write fast path's
        // metadata byte store would otherwise (char aliasing) force
        // every member below to be re-loaded from `this` each iteration.
        const cache::VirtualCache::HotView hv = vcache_.hot_view();
        // Per-type counts as independent register accumulators: an
        // indexed `++counts[type]` would chain same-address store
        // forwards (70% of a typical stream is instruction fetches), so
        // count reads and writes with branchless compares and derive the
        // ifetch count from the total.
        uint64_t reads = 0;
        uint64_t writes = 0;
        uint64_t hits = 0;
        uint64_t clean_write_hits = 0;
        // The four segment registers are cached per process across the
        // batch (a batch is one scheduling quantum: a single process).
        const std::array<uint32_t, pt::kSegmentsPerProcess>* segs = nullptr;
        Pid segs_pid = 0;
        for (size_t i = 0; i < n; ++i) {
            const MemRef ref = refs[i];
            reads += static_cast<uint64_t>(ref.type == AccessType::kRead);
            writes += static_cast<uint64_t>(ref.type == AccessType::kWrite);
            if (segs == nullptr || ref.pid != segs_pid) {
                segs = &segmap_.RegistersOf(ref.pid);
                segs_pid = ref.pid;
            }
            // The cache indexes entirely below the segment shift
            // (checked above), so the slot index depends only on the
            // process address and the tag/metadata loads overlap the
            // segment-register resolution.
            const GlobalAddr gva =
                (static_cast<GlobalAddr>(
                     (*segs)[ref.addr >> pt::kSegmentShift])
                 << pt::kSegmentShift) |
                (ref.addr & (pt::kSegmentBytes - 1));
            const uint64_t index =
                (ref.addr >> hv.block_shift) & hv.index_mask;
            const uint64_t tag = gva >> hv.tag_shift;
            const uint8_t m = hv.meta[index];
            // spur-lint: allow(no-raw-meta-bits) — the SoA hot loop
            if ((m & cache::meta::kStateMask) != 0 &&
                hv.tags[index] == tag) {
                ++hits;
                // Hit tail: fetches and reads store nothing, so
                // consecutive references to one block never chain a
                // metadata store into the next tag check.  A write counts
                // the Table 3.3 N_w-hit population, then either takes the
                // fast path (B set, CS promoted to OwnedExclusive: one OR
                // into the packed byte) or, under a lazy dirty policy's
                // first write, the slow path.
                if (ref.type == AccessType::kWrite) {
                    clean_write_hits += static_cast<uint64_t>(
                        // spur-lint: allow(no-raw-meta-bits) — hot loop
                        (m & cache::meta::kBlockDirtyBit) == 0);
                    cache::LineRef line(&hv.tags[index], &hv.meta[index]);
                    if (!policy::DirtyOps<D>::WriteHitFastPath(line)) {
                        WriteHitSlow<D, R, false>(line, gva);
                        continue;
                    }
                    hv.meta[index] = static_cast<uint8_t>(
                        // spur-lint: allow(no-raw-meta-bits) — hot loop
                        m | cache::meta::kBlockDirtyBit |
                        static_cast<uint8_t>(
                            cache::CoherencyState::kOwnedExclusive));
                }
                continue;
            }
            events.Add(MissEvent(ref.type));
            AccessMissImpl<D, R, false>(gva, ref.type);
        }
        events_.AddUnobserved(sim::Event::kIFetch, n - reads - writes);
        events_.AddUnobserved(sim::Event::kRead, reads);
        events_.AddUnobserved(sim::Event::kWrite, writes);
        events_.AddUnobserved(sim::Event::kWriteHitCleanBlock,
                              clean_write_hits);
        timing_.Charge(sim::TimeBucket::kExecute, hits * t_hit);
    }
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
void
SpurSystem::SetDispatchFns(bool observed)
{
    if (observed) {
        access_fn_ = &SpurSystem::AccessImpl<D, R, true>;
        batch_fn_ = &SpurSystem::AccessBatchImpl<D, R, true>;
    } else {
        access_fn_ = &SpurSystem::AccessImpl<D, R, false>;
        batch_fn_ = &SpurSystem::AccessBatchImpl<D, R, false>;
    }
}

template <policy::DirtyPolicyKind D>
void
SpurSystem::SelectDispatchRef(bool observed)
{
    switch (ref_->kind()) {
      case policy::RefPolicyKind::kMiss:
        SetDispatchFns<D, policy::RefPolicyKind::kMiss>(observed);
        break;
      case policy::RefPolicyKind::kRef:
        SetDispatchFns<D, policy::RefPolicyKind::kRef>(observed);
        break;
      case policy::RefPolicyKind::kNoRef:
        SetDispatchFns<D, policy::RefPolicyKind::kNoRef>(observed);
        break;
    }
}

void
SpurSystem::SelectDispatch()
{
    const bool observed = events_.HasObserver();
    switch (dirty_->kind()) {
      case policy::DirtyPolicyKind::kMin:
        SelectDispatchRef<policy::DirtyPolicyKind::kMin>(observed);
        break;
      case policy::DirtyPolicyKind::kFault:
        SelectDispatchRef<policy::DirtyPolicyKind::kFault>(observed);
        break;
      case policy::DirtyPolicyKind::kFlush:
        SelectDispatchRef<policy::DirtyPolicyKind::kFlush>(observed);
        break;
      case policy::DirtyPolicyKind::kSpur:
        SelectDispatchRef<policy::DirtyPolicyKind::kSpur>(observed);
        break;
      case policy::DirtyPolicyKind::kWrite:
        SelectDispatchRef<policy::DirtyPolicyKind::kWrite>(observed);
        break;
      case policy::DirtyPolicyKind::kSpurProt:
        SelectDispatchRef<policy::DirtyPolicyKind::kSpurProt>(observed);
        break;
      case policy::DirtyPolicyKind::kWriteHw:
        SelectDispatchRef<policy::DirtyPolicyKind::kWriteHw>(observed);
        break;
    }
}

void
SpurSystem::OnContextSwitch()
{
    events_.Add(sim::Event::kContextSwitch);
    timing_.Charge(sim::TimeBucket::kKernel, config_.t_context_switch);
    if constexpr (check::kAuditEnabled) {
        Audit().RaiseIfFailed("SpurSystem::OnContextSwitch");
    }
}

check::AuditReport
SpurSystem::Audit() const
{
    check::AuditContext context;
    context.config = &config_;
    context.caches = {&vcache_};
    context.table = &table_;
    context.frames = &vm_->frames();
    context.store = &vm_->store();
    context.regions = &vm_->regions();
    context.events = &events_;
    context.dirty = dirty_->kind();
    context.ref = ref_->kind();
    return check::InvariantChecker::Default().Run(context);
}

void
SpurSystem::ClearRefBit(GlobalAddr gva)
{
    pt::Pte* pte = table_.FindMutable(gva >> config_.PageShift());
    if (pte == nullptr || !pte->valid()) {
        Panic("SpurSystem::ClearRefBit: page not resident");
    }
    const GlobalAddr page_addr = gva & ~(config_.page_bytes - 1);
    const policy::RefCost cost =
        ref_->ClearRefBit(*pte, page_addr, events_);
    timing_.Charge(sim::TimeBucket::kKernel, cost.kernel_cycles);
    timing_.Charge(sim::TimeBucket::kFlush, cost.flush_cycles);
}

void
SpurSystem::FlushPage(GlobalAddr gva)
{
    const GlobalAddr page_addr = gva & ~(config_.page_bytes - 1);
    const cache::FlushResult result = vcache_.FlushPageChecked(page_addr);
    events_.Add(sim::Event::kPageFlush);
    events_.Add(sim::Event::kBlockFlush, result.blocks_flushed);
    events_.Add(sim::Event::kWriteback, result.writebacks);
    timing_.Charge(sim::TimeBucket::kFlush, config_.t_flush_page);
}

pt::Pte&
SpurSystem::ResidentPte(GlobalAddr gva)
{
    pt::Pte* pte = table_.FindMutable(gva >> config_.PageShift());
    if (pte == nullptr || !pte->valid()) {
        Panic("SpurSystem: cache hit on a non-resident page (reclaim "
              "missed a flush?)");
    }
    return *pte;
}

void
SpurSystem::ChargeDirty(const policy::DirtyCost& cost)
{
    timing_.Charge(sim::TimeBucket::kFault, cost.fault_cycles);
    timing_.Charge(sim::TimeBucket::kFlush, cost.flush_cycles);
    timing_.Charge(sim::TimeBucket::kDirtyAux, cost.aux_cycles);
}

}  // namespace spur::core
