// spur:hot-path
#include "src/core/system.h"

#include <algorithm>
#include <array>
#include <string>

#include "src/common/log.h"
#include "src/policy/policy_ops.h"
#include "src/pt/segment_map.h"

namespace spur::core {

namespace {

/** Rejects a cache larger than one segment, where the batch loop's
 *  index-from-process-address trick would be unsound. */
const sim::MachineConfig&
WithinOneSegment(const sim::MachineConfig& config)
{
    if (config.cache_bytes > pt::kSegmentBytes) {
        Fatal("SpurSystem: cache_bytes " +
              std::to_string(config.cache_bytes) +
              " exceeds one segment (1 GiB)");
    }
    return config;
}

}  // namespace

SpurSystem::SpurSystem(const sim::MachineConfig& config,
                       policy::DirtyPolicyKind dirty,
                       policy::RefPolicyKind ref)
    : vcache_(WithinOneSegment(config)),
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
    // Every event add is a plain commutative counter increment and
    // nothing can see the machine between the batch's references, so
    // the per-reference type counts and hit cycles accumulate in
    // registers and flush at the end of each chunk.  Final
    // events/timing state is bit-identical to AccessImpl on each
    // reference in turn; state mutation (cache, PTEs, VM) still happens
    // strictly in order.
    //
    // The fast path is one test that is almost always true: the
    // reference hits, and is not a write to an unsettled line.  A
    // settled line (DirtyOps<D>::kSettledWrite) already has B set
    // and CS OwnedExclusive and passes WriteHitFastPath, so a write
    // hit on it changes nothing but the type and hit counts.
    // Misses and unsettled write hits leave the fast path and run
    // the same code as AccessImpl.
    sim::EventCounts& events = kernel_.events();
    const pt::SegmentMap& segmap = kernel_.segments();
    // Raw SoA view and geometry in locals: a metadata byte store
    // would otherwise (char aliasing) force every member below to
    // be re-loaded from `this` each iteration.
    const cache::VirtualCache::HotView hv = vcache_.hot_view();
    static_assert(static_cast<unsigned>(AccessType::kIFetch) == 0 &&
                  static_cast<unsigned>(AccessType::kRead) == 1 &&
                  static_cast<unsigned>(AccessType::kWrite) == 2);
    // The metadata bytes that send a reference of each type off the
    // fast path, as byte maps (bit m for byte m): an invalid slot,
    // and for a write every byte off the settled pattern.  Looking
    // the reference type up leaves no branch on it, whose value is
    // random from one reference to the next.
    static constexpr uint64_t kLeave[] = {
        cache::meta::kInvalid.Bytes(), cache::meta::kInvalid.Bytes(),
        ~policy::DirtyOps<D>::kSettledWrite.Bytes()};
    // The per-type counts share one register: type t adds
    // kTypeOne[t] = 1 << (kTypeBits * t), and a chunk is short
    // enough that no field carries into the next.  Hits are n
    // minus the misses, so nothing is counted per hit.
    constexpr unsigned kTypeBits = 21;
    constexpr uint64_t kTypeMask = (uint64_t{1} << kTypeBits) - 1;
    constexpr size_t kChunk = kTypeMask;
    static constexpr uint64_t kTypeOne[] = {
        1, uint64_t{1} << kTypeBits, uint64_t{1} << (2 * kTypeBits)};
    size_t misses = 0;
    // The cache indexes entirely below the segment shift (the
    // constructor rejects larger caches), so a tag is the global
    // segment's bits above the in-segment offset's.  segbase[r] is
    // register r's segment in tag position less r's own, so that
    // adding the process address's tag bits (register number
    // included) gives the tag.
    // Reloaded when the pid changes (a batch is one scheduling
    // quantum: one process); the global address itself is formed
    // only off the fast path.
    const unsigned seg_shift = pt::kSegmentShift - hv.tag_shift;
    std::array<uint64_t, pt::kSegmentsPerProcess> segbase{};
    const auto load_segbase = [&segmap, &segbase, seg_shift](Pid pid) {
        const std::array<uint32_t, pt::kSegmentsPerProcess>& regs =
            segmap.RegistersOf(pid);
        for (unsigned r = 0; r < pt::kSegmentsPerProcess; ++r) {
            segbase[r] = (static_cast<uint64_t>(regs[r]) - r)
                         << seg_shift;
        }
    };
    Pid pid = 0;
    if (n > 0) {
        pid = refs[0].pid;
        load_segbase(pid);
    }
    for (size_t begin = 0; begin < n; begin += kChunk) {
        const MemRef* p = refs + begin;
        const MemRef* const end = refs + std::min(n, begin + kChunk);
        uint64_t types = 0;
        while (true) {
            // The fast scan makes no call, so its state stays in
            // registers; it stops at the first reference that needs
            // the machine.
            uint64_t index = 0;
            uint64_t tag = 0;
            for (; p != end; ++p) {
                const MemRef ref = *p;
                const unsigned type = static_cast<unsigned>(ref.type);
                types += kTypeOne[type];
                if (ref.pid != pid) {
                    pid = ref.pid;
                    load_segbase(pid);
                }
                index = (ref.addr >> hv.block_shift) & hv.index_mask;
                tag = segbase[ref.addr >> pt::kSegmentShift] +
                      (ref.addr >> hv.tag_shift);
                const uint8_t m = hv.meta[index];
                const uint64_t leave =
                    (hv.tags[index] ^ tag) |
                    ((kLeave[type] >> (m & 63)) & 1);
                if (leave != 0) [[unlikely]] {
                    break;
                }
            }
            if (p == end) {
                break;
            }
            const MemRef ref = *p++;
            const GlobalAddr gva = kernel_.ToGlobal(ref.pid, ref.addr);
            cache::LineRef line(&hv.tags[index], &hv.meta[index]);
            if (!line.valid() || line.tag() != tag) {
                ++misses;
                events.Add(sim::MissEvent(ref.type));
                AccessMissImpl<D, R>(gva, ref.type);
                continue;
            }
            // A write hit on an unsettled line: count the Table 3.3
            // N_w-hit population, then either take the fast path (B
            // set, CS promoted to OwnedExclusive: one OR into the
            // packed byte) or, under a lazy dirty policy's first
            // write, the slow path.
            if (!line.block_dirty()) {
                events.Add(sim::Event::kWriteHitCleanBlock);
            }
            if (policy::DirtyOps<D>::WriteHitFastPath(line)) {
                line.MarkWritten();
                continue;
            }
            WriteHitSlow<D, R>(line, gva);
        }
        events.Add(sim::Event::kIFetch, types & kTypeMask);
        events.Add(sim::Event::kRead, (types >> kTypeBits) & kTypeMask);
        events.Add(sim::Event::kWrite, types >> (2 * kTypeBits));
    }
    kernel_.timing().Charge(sim::TimeBucket::kExecute,
                            (n - misses) * kernel_.config().t_cache_hit);
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
