#include "src/core/tlb_system.h"

#include <memory>

namespace spur::core {

cache::FlushResult
TlbSystem::ReclaimFlusher::FlushPageChecked(GlobalAddr addr)
{
    TlbSystem& sys = system_;
    const unsigned page_shift = sys.kernel_.config().PageShift();
    const GlobalVpn vpn = addr >> page_shift;
    cache::FlushResult result;
    const pt::Pte* pte = sys.kernel_.FindPte(addr);
    if (pte != nullptr && pte->valid()) {
        // Invalidate the physical frame's lines (the next occupant of the
        // frame arrives by I/O, which is not coherent with the cache).
        const PhysAddr frame_base = static_cast<PhysAddr>(pte->pfn())
                                    << page_shift;
        result = sys.pcache_.FlushPageChecked(frame_base);
    }
    // Shoot down the translation.
    sys.tlb_.Invalidate(vpn);
    return result;
}

policy::RefCost
TlbSystem::TlbRefPolicy::OnCacheMiss(pt::Pte& pte, sim::EventCounts& events)
{
    // Never called on the TLB machine's hot path (bits are set during
    // translation), but keep it correct for the shared VM code.
    (void)events;
    pte.set_referenced(true);
    return policy::RefCost{};
}

policy::RefCost
TlbSystem::TlbRefPolicy::ClearRefBit(pt::Pte& pte, GlobalAddr page_addr,
                                     sim::EventCounts& events)
{
    events.Add(sim::Event::kRefClear);
    pte.set_referenced(false);
    // The cached translation must go, or the hardware would keep
    // skipping the R update: the TLB shootdown is the whole cost of
    // clearing a bit here (no cache flush!).
    system_.tlb_.Invalidate(page_addr >>
                            system_.kernel_.config().PageShift());
    policy::RefCost cost;
    cost.kernel_cycles = system_.kernel_.config().t_ref_clear;
    return cost;
}

TlbSystem::TlbSystem(const sim::MachineConfig& config, uint32_t tlb_entries)
    : tlb_(tlb_entries),
      pcache_(config),
      flusher_(*this),
      // MIN is exactly right here: the hardware maintains D with zero
      // marginal cost, so only intrinsic state changes happen.
      kernel_(config, flusher_, policy::DirtyPolicyKind::kMin,
              policy::RefPolicyKind::kRef,
              std::make_unique<TlbRefPolicy>(*this)),
      // A miss walks two levels in memory: one block fetch per level.
      t_walk_(2 * Cycles{kernel_.config().BlockFetchCycles()})
{
}

TlbSystem::~TlbSystem() = default;

pt::Pte&
TlbSystem::Translate(GlobalAddr gva, bool is_write)
{
    sim::EventCounts& events = kernel_.events();
    sim::TimingModel& timing = kernel_.timing();
    const GlobalVpn vpn = gva >> kernel_.config().PageShift();
    timing.Charge(sim::TimeBucket::kXlate, t_tlb_);
    if (!tlb_.Lookup(vpn)) {
        // Hardware page-table walk.
        events.Add(sim::Event::kXlatePteMiss);
        timing.Charge(sim::TimeBucket::kXlate, t_walk_);
        tlb_.Insert(vpn);
    } else {
        events.Add(sim::Event::kXlatePteHit);
    }
    pt::Pte* pte = kernel_.page_table().FindMutable(vpn);
    if (pte == nullptr || !pte->valid()) {
        pte = &kernel_.memory().HandlePageFault(gva);
        tlb_.Insert(vpn);
    }
    // The famous free lunch: R and D are set as a side effect of the
    // translation the machine had to do anyway.
    if (!pte->referenced()) {
        pte->set_referenced(true);
    }
    if (is_write && !pte->dirty()) {
        events.Add(sim::Event::kDirtyFault);  // Bookkeeping: a
        if (pte->zfod_clean()) {              // clean->dirty transition,
            events.Add(sim::Event::kDirtyFaultZfod);  // not a fault.
            pte->set_zfod_clean(false);
        }
        pte->set_dirty(true);
    }
    return *pte;
}

void
TlbSystem::Access(const MemRef& ref)
{
    const sim::MachineConfig& config = kernel_.config();
    sim::EventCounts& events = kernel_.events();
    const GlobalAddr gva = kernel_.ToGlobal(ref.pid, ref.addr);
    const bool is_write = ref.type == AccessType::kWrite;
    events.Add(sim::RefEvent(ref.type));

    // Translation first: it is on the critical path of every access.
    pt::Pte& pte = Translate(gva, is_write);
    const PhysAddr pa =
        (static_cast<PhysAddr>(pte.pfn()) << config.PageShift()) |
        (gva & (config.page_bytes - 1));

    cache::LineRef line = pcache_.Lookup(pa);
    if (line) {
        kernel_.timing().Charge(sim::TimeBucket::kExecute,
                                config.t_cache_hit);
        if (is_write) {
            if (!line.block_dirty()) {
                events.Add(sim::Event::kWriteHitCleanBlock);
            }
            cache::VirtualCache::MarkWritten(line);
        }
        return;
    }

    events.Add(sim::MissEvent(ref.type));
    cache::Eviction eviction;
    cache::LineRef filled =
        pcache_.Fill(pa, pte.protection(), pte.dirty(), &eviction);
    kernel_.ChargeFill(filled, eviction, ref.type);
}

}  // namespace spur::core
