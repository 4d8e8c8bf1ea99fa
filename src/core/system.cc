// spur:hot-path
#include "src/core/system.h"

#include <algorithm>
#include <array>
#include <string>

#include "src/common/cpu.h"
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

// ---------------------------------------------------------------------------
// The batch hit scan.  ScanHits is its one source; ScanHitsBaseline and
// ScanHitsBmi2 compile it for baseline x86-64 and for BMI1 + BMI2, and
// AccessBatchImpl calls the one the system's HitScanKernel names.
// ---------------------------------------------------------------------------

static_assert(static_cast<unsigned>(AccessType::kIFetch) == 0 &&
              static_cast<unsigned>(AccessType::kRead) == 1 &&
              static_cast<unsigned>(AccessType::kWrite) == 2);

/** The per-type counts share one word: type t adds 1 << (kTypeBits *
 *  t), and a chunk of kChunk references is short enough that no field
 *  carries into the next. */
constexpr unsigned kTypeBits = 21;
constexpr uint64_t kTypeMask = (uint64_t{1} << kTypeBits) - 1;
constexpr size_t kChunk = kTypeMask;

/** What a reference of each type adds to the packed type counts. */
constexpr std::array<uint64_t, 3> kTypeOne = {
    1, uint64_t{1} << kTypeBits, uint64_t{1} << (2 * kTypeBits)};

/** The metadata bytes that send a reference of each type off the fast
 *  path under dirty policy D, as byte maps (bit m for byte m): an
 *  invalid slot, and for a write every byte off D's settled pattern.
 *  Looking the type up leaves no branch on it, whose value is random
 *  from one reference to the next. */
template <policy::DirtyPolicyKind D>
constexpr std::array<uint64_t, 3> kLeave = {
    cache::meta::kInvalid.Bytes(), cache::meta::kInvalid.Bytes(),
    ~policy::DirtyOps<D>::kSettledWrite.Bytes()};

/** What the scan reads besides the cache and the references: a pid's
 *  segment bases (see AccessBatchImpl), kTypeOne and a policy's kLeave.
 *  One struct, so one register addresses all three. */
struct ScanTables {
    std::array<uint64_t, pt::kSegmentsPerProcess> segbase;
    std::array<uint64_t, 3> type_one;
    std::array<uint64_t, 3> leave;
};

/** Where a scan stopped and the packed type counts of the references
 *  before it (two words: returned in registers). */
struct ScanStop {
    const MemRef* at;
    uint64_t types;
};

/** A process address's cache slot and tag (see AccessBatchImpl's
 *  segment bases). */
struct Slot {
    uint64_t index;
    uint64_t tag;
};

[[gnu::always_inline]] inline Slot
SlotOf(const cache::VirtualCache::HotView& hv, const uint64_t* segbase,
       ProcessAddr addr)
{
    return Slot{(addr >> hv.block_shift) & hv.index_mask,
                segbase[addr >> pt::kSegmentShift] + (addr >> hv.tag_shift)};
}

/**
 * Scans [p, end) while each reference is @p pid's, hits, and is not a
 * write to an unsettled line: the fast path, which changes nothing but
 * the type and hit counts.  Stops at the first reference that is not,
 * uncounted.  Makes no call, so every loop invariant stays in a
 * register.
 */
[[gnu::always_inline]] inline ScanStop
ScanHits(const MemRef* p, const MemRef* const end, const Pid pid,
         const ScanTables& tables, const cache::VirtualCache::HotView& view)
{
    const cache::VirtualCache::HotView hv = view;
    uint64_t types = 0;
    for (; p != end; ++p) {
        const MemRef ref = *p;
        if (ref.pid != pid) [[unlikely]] {
            break;
        }
        const unsigned type = static_cast<unsigned>(ref.type);
        const Slot slot = SlotOf(hv, tables.segbase.data(), ref.addr);
        const uint8_t m = hv.meta[slot.index];
        const uint64_t leave = (hv.tags[slot.index] ^ slot.tag) |
                               ((tables.leave[type] >> (m & 63)) & 1);
        if (leave != 0) [[unlikely]] {
            break;
        }
        types += tables.type_one[type];
    }
    return ScanStop{p, types};
}

using ScanHitsFn = ScanStop (*)(const MemRef*, const MemRef*, Pid,
                                const ScanTables&,
                                const cache::VirtualCache::HotView&);

[[gnu::noinline]] ScanStop
ScanHitsBaseline(const MemRef* p, const MemRef* end, Pid pid,
                 const ScanTables& tables,
                 const cache::VirtualCache::HotView& hv)
{
    return ScanHits(p, end, pid, tables, hv);
}

#if defined(__x86_64__)
/** Only HostHitScanKernel() or a CpuHasBmi2() check may lead here. */
[[gnu::noinline, gnu::target("bmi,bmi2")]] ScanStop
ScanHitsBmi2(const MemRef* p, const MemRef* end, Pid pid,
             const ScanTables& tables, const cache::VirtualCache::HotView& hv)
{
    return ScanHits(p, end, pid, tables, hv);
}
#endif

ScanHitsFn
ScanHitsFor([[maybe_unused]] HitScanKernel scan)
{
#if defined(__x86_64__)
    if (scan == HitScanKernel::kBmi2) {
        return &ScanHitsBmi2;
    }
#endif
    return &ScanHitsBaseline;
}

}  // namespace

HitScanKernel
HostHitScanKernel()
{
    static const HitScanKernel scan =
        CpuHasBmi2() ? HitScanKernel::kBmi2 : HitScanKernel::kBaseline;
    return scan;
}

SpurSystem::SpurSystem(const sim::MachineConfig& config,
                       policy::DirtyPolicyKind dirty,
                       policy::RefPolicyKind ref, HitScanKernel scan)
    : cpu_(WithinOneSegment(config), dirty, ref), scan_(scan)
{
    if (scan_ == HitScanKernel::kBmi2 && !CpuHasBmi2()) {
        Fatal("SpurSystem: the BMI2 hit scan needs a CPU with BMI2");
    }
    cpu_.kernel.SetAuditedCaches({&cpu_.vcache});
    policy::Dispatch(dirty, ref, [this]<policy::DirtyPolicyKind D,
                                        policy::RefPolicyKind R>() {
        access_fn_ = &AccessPath<D, R, NoCoherence>::Access;
        batch_fn_ = &SpurSystem::AccessBatchImpl<D, R>;
    });
}

SpurSystem::~SpurSystem() = default;

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
void
SpurSystem::AccessBatchImpl(const MemRef* refs, size_t n)
{
    // Every event add is a plain commutative counter increment and
    // nothing can see the machine between the batch's references, so
    // the per-reference type counts and hit cycles accumulate in
    // registers and flush at the end of each chunk.  Final
    // events/timing state is bit-identical to Path::Access on each
    // reference in turn; state mutation (cache, PTEs, VM) still happens
    // strictly in order.
    //
    // The fast path is one test that is almost always true: the
    // reference hits, and is not a write to an unsettled line.  A
    // settled line (DirtyOps<D>::kSettledWrite) already has B set
    // and CS OwnedExclusive and passes WriteHitFastPath, so a write
    // hit on it changes nothing but the type and hit counts.  The
    // scan leaf runs it; misses and unsettled write hits leave the
    // leaf and run Path::Access's code.
    using Path = AccessPath<D, R, NoCoherence>;
    Kernel& kernel = cpu_.kernel;
    sim::EventCounts& events = kernel.events();
    const pt::SegmentMap& segmap = kernel.segments();
    // Raw SoA view and geometry in locals: a metadata byte store
    // would otherwise (char aliasing) force every member below to
    // be re-loaded from `this` each iteration.
    const cache::VirtualCache::HotView hv = cpu_.vcache.hot_view();
    const ScanHitsFn scan = ScanHitsFor(scan_);
    // Hits are n minus the misses, so nothing is counted per hit.
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
    ScanTables tables{{}, kTypeOne, kLeave<D>};
    const auto load_segbase = [&segmap, &tables, seg_shift](Pid pid) {
        const std::array<uint32_t, pt::kSegmentsPerProcess>& regs =
            segmap.RegistersOf(pid);
        for (unsigned r = 0; r < pt::kSegmentsPerProcess; ++r) {
            tables.segbase[r] = (static_cast<uint64_t>(regs[r]) - r)
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
            const ScanStop stop = scan(p, end, pid, tables, hv);
            types += stop.types;
            p = stop.at;
            if (p == end) {
                break;
            }
            const MemRef ref = *p;
            if (ref.pid != pid) {
                pid = ref.pid;
                load_segbase(pid);
                continue;
            }
            ++p;
            types += kTypeOne[static_cast<unsigned>(ref.type)];
            const Slot slot = SlotOf(hv, tables.segbase.data(), ref.addr);
            const GlobalAddr gva = kernel.ToGlobal(ref.pid, ref.addr);
            cache::LineRef line(&hv.tags[slot.index], &hv.meta[slot.index]);
            if (!line.valid() || line.tag() != slot.tag) {
                ++misses;
                events.Add(sim::MissEvent(ref.type));
                Path::Miss(cpu_, gva, ref.type);
                continue;
            }
            // A write hit on an unsettled line.
            Path::WriteHit(cpu_, line, gva);
        }
        events.Add(sim::Event::kIFetch, types & kTypeMask);
        events.Add(sim::Event::kRead, (types >> kTypeBits) & kTypeMask);
        events.Add(sim::Event::kWrite, types >> (2 * kTypeBits));
    }
    kernel.timing().Charge(sim::TimeBucket::kExecute,
                           (n - misses) * kernel.config().t_cache_hit);
}

}  // namespace spur::core
