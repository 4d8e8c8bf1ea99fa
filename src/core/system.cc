// spur:hot-path
#include "src/core/system.h"

#include <array>

#include "src/policy/policy_ops.h"

namespace spur::core {

SpurSystem::SpurSystem(const sim::MachineConfig& config,
                       policy::DirtyPolicyKind dirty,
                       policy::RefPolicyKind ref)
    : vcache_(config),
      kernel_(config, vcache_, dirty, ref),
      xlate_(vcache_, kernel_.page_table(), kernel_.config())
{
    kernel_.SetAuditedCaches({&vcache_});
    SelectDispatch();
}

SpurSystem::~SpurSystem() = default;

// ---------------------------------------------------------------------------
// The devirtualized hot path.  One AccessImpl instantiation exists per
// (dirty policy, ref policy) configuration; the policy hooks inline from
// policy_ops.h.  The bodies below must stay semantically identical to
// the virtual-policy path (same events in the same order, same cycle
// charges): the policy ops are the shared source of truth, and
// tests/golden outputs pin the equivalence.
// ---------------------------------------------------------------------------

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
void
SpurSystem::WriteHitSlow(cache::LineRef line, GlobalAddr gva)
{
    const policy::DirtyCost cost = policy::DirtyOps<D>::OnWriteHit(
        line, gva, kernel_.ResidentPte(gva), kernel_.events(), vcache_,
        kernel_.config());
    kernel_.ChargeDirty(cost);
    if (cost.line_invalidated) {
        // FLUSH purged the written line inside the fault handler; the
        // store re-executes as a cache miss and refills the block
        // under the page's new protection.
        AccessMissImpl<D, R>(gva, AccessType::kWrite);
        return;
    }
    line.MarkWritten();
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
void
SpurSystem::AccessImpl(const MemRef& ref)
{
    kernel_.CountAccessForAudit();

    sim::EventCounts& events = kernel_.events();
    const GlobalAddr gva = kernel_.ToGlobal(ref.pid, ref.addr);
    events.Add(sim::RefEvent(ref.type));

    cache::LineRef line = vcache_.Lookup(gva);
    if (line) {
        kernel_.timing().Charge(sim::TimeBucket::kExecute,
                                kernel_.config().t_cache_hit);
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
        WriteHitSlow<D, R>(line, gva);
        return;
    }

    events.Add(sim::MissEvent(ref.type));
    AccessMissImpl<D, R>(gva, ref.type);
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
void
SpurSystem::AccessMissImpl(GlobalAddr gva, AccessType type)
{
    sim::EventCounts& events = kernel_.events();
    sim::TimingModel& timing = kernel_.timing();
    const sim::MachineConfig& config = kernel_.config();
    // In-cache translation: find the PTE (possibly faulting the page in).
    xlate::XlateResult xr = xlate_.Translate(gva, events);
    timing.Charge(sim::TimeBucket::kXlate, xr.cycles);
    pt::Pte* pte = xr.pte;
    if (!pte->valid()) {
        pte = &kernel_.memory().HandlePageFault(gva);
    }

    // Reference bit: the controller checks R while it has the PTE.
    const policy::RefCost ref_cost =
        policy::RefOps<R>::OnCacheMiss(*pte, events, config);
    timing.Charge(sim::TimeBucket::kFault, ref_cost.fault_cycles);

    // Dirty bit: a write miss checks the dirty state before the fill.
    if (type == AccessType::kWrite) {
        kernel_.ChargeDirty(policy::DirtyOps<D>::OnWriteMiss(
            gva, *pte, events, vcache_, config));
    }

    // Fill the block, copying PR and the page dirty bit from the PTE into
    // the cache line (Figure 3.2).
    cache::Eviction eviction;
    cache::LineRef line =
        vcache_.Fill(gva, pte->protection(), pte->dirty(), &eviction);
    kernel_.ChargeFill(line, eviction, type);
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
void
SpurSystem::AccessBatchImpl(const MemRef* refs, size_t n)
{
    if constexpr (check::kAuditEnabled) {
        // Audit builds need the per-reference countdown: run the plain
        // loop.
        for (size_t i = 0; i < n; ++i) {
            AccessImpl<D, R>(refs[i]);
        }
    } else if (kernel_.config().cache_bytes > pt::kSegmentBytes) {
        // Exotic configuration (cache larger than a segment): the
        // index-from-process-address trick below is unsound, so keep the
        // plain per-reference loop.
        for (size_t i = 0; i < n; ++i) {
            AccessImpl<D, R>(refs[i]);
        }
    } else {
        // Every event add is a plain commutative counter increment and
        // nothing can see the machine between the batch's references, so
        // the per-reference type counts and hit cycles accumulate in
        // registers and flush once at the end.  Final events/timing
        // state is bit-identical to the loop above; state mutation
        // (cache, PTEs, VM) still happens strictly in order.
        sim::EventCounts& events = kernel_.events();
        const pt::SegmentMap& segmap = kernel_.segments();
        const Cycles t_hit = kernel_.config().t_cache_hit;
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
                segs = &segmap.RegistersOf(ref.pid);
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
                        WriteHitSlow<D, R>(line, gva);
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
            events.Add(sim::MissEvent(ref.type));
            AccessMissImpl<D, R>(gva, ref.type);
        }
        events.Add(sim::Event::kIFetch, n - reads - writes);
        events.Add(sim::Event::kRead, reads);
        events.Add(sim::Event::kWrite, writes);
        events.Add(sim::Event::kWriteHitCleanBlock, clean_write_hits);
        kernel_.timing().Charge(sim::TimeBucket::kExecute, hits * t_hit);
    }
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
void
SpurSystem::SetDispatchFns()
{
    access_fn_ = &SpurSystem::AccessImpl<D, R>;
    batch_fn_ = &SpurSystem::AccessBatchImpl<D, R>;
}

template <policy::DirtyPolicyKind D>
void
SpurSystem::SelectDispatchRef()
{
    switch (kernel_.ref_kind()) {
      case policy::RefPolicyKind::kMiss:
        SetDispatchFns<D, policy::RefPolicyKind::kMiss>();
        break;
      case policy::RefPolicyKind::kRef:
        SetDispatchFns<D, policy::RefPolicyKind::kRef>();
        break;
      case policy::RefPolicyKind::kNoRef:
        SetDispatchFns<D, policy::RefPolicyKind::kNoRef>();
        break;
    }
}

void
SpurSystem::SelectDispatch()
{
    switch (kernel_.dirty_kind()) {
      case policy::DirtyPolicyKind::kMin:
        SelectDispatchRef<policy::DirtyPolicyKind::kMin>();
        break;
      case policy::DirtyPolicyKind::kFault:
        SelectDispatchRef<policy::DirtyPolicyKind::kFault>();
        break;
      case policy::DirtyPolicyKind::kFlush:
        SelectDispatchRef<policy::DirtyPolicyKind::kFlush>();
        break;
      case policy::DirtyPolicyKind::kSpur:
        SelectDispatchRef<policy::DirtyPolicyKind::kSpur>();
        break;
      case policy::DirtyPolicyKind::kWrite:
        SelectDispatchRef<policy::DirtyPolicyKind::kWrite>();
        break;
      case policy::DirtyPolicyKind::kSpurProt:
        SelectDispatchRef<policy::DirtyPolicyKind::kSpurProt>();
        break;
      case policy::DirtyPolicyKind::kWriteHw:
        SelectDispatchRef<policy::DirtyPolicyKind::kWriteHw>();
        break;
    }
}

}  // namespace spur::core
