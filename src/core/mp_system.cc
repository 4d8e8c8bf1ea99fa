#include "src/core/mp_system.h"

#include <string>

#include "src/common/log.h"

namespace spur::core {

cache::FlushResult
AllCachesFlusher::FlushPageChecked(GlobalAddr addr)
{
    cache::FlushResult total;
    for (const auto& vcache : caches_) {
        const cache::FlushResult one = vcache->FlushPageChecked(addr);
        total.slots_examined += one.slots_examined;
        total.blocks_flushed += one.blocks_flushed;
        total.writebacks += one.writebacks;
        total.foreign_flushed += one.foreign_flushed;
    }
    return total;
}

MpSpurSystem::MpSpurSystem(const sim::MachineConfig& config,
                           unsigned num_cpus, policy::DirtyPolicyKind dirty,
                           policy::RefPolicyKind ref)
    : flusher_(caches_),
      kernel_(config, flusher_, dirty, ref),
      bus_(kernel_.events())
{
    if (num_cpus < 1 || num_cpus > 12) {
        Fatal("MpSpurSystem: a SPUR workstation holds 1..12 processor "
              "boards, got " + std::to_string(num_cpus));
    }
    std::vector<const cache::VirtualCache*> audited;
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        caches_.push_back(
            std::make_unique<cache::VirtualCache>(kernel_.config()));
        bus_.Attach(caches_.back().get());
        xlates_.push_back(std::make_unique<xlate::Translator>(
            *caches_.back(), kernel_.page_table(), kernel_.config()));
        audited.push_back(caches_.back().get());
    }
    kernel_.SetAuditedCaches(std::move(audited));
}

MpSpurSystem::~MpSpurSystem() = default;

void
MpSpurSystem::Access(unsigned cpu, const MemRef& ref)
{
    sim::EventCounts& events = kernel_.events();
    const GlobalAddr gva = kernel_.ToGlobal(ref.pid, ref.addr);
    events.Add(sim::RefEvent(ref.type));

    cache::VirtualCache& vcache = *caches_[cpu];
    cache::LineRef line = vcache.Lookup(gva);
    if (line) {
        kernel_.timing().Charge(sim::TimeBucket::kExecute,
                                kernel_.config().t_cache_hit);
        if (ref.type != AccessType::kWrite) {
            return;
        }
        if (!line.block_dirty()) {
            events.Add(sim::Event::kWriteHitCleanBlock);
        }
        policy::DirtyPolicy& dirty = kernel_.dirty_policy();
        if (!dirty.WriteHitFastPath(line)) {
            const policy::DirtyCost cost = dirty.OnWriteHit(
                line, gva, kernel_.ResidentPte(gva), events);
            kernel_.ChargeDirty(cost);
            if (cost.line_invalidated) {
                AccessMiss(cpu, gva, ref.type);
                return;
            }
        }
        // Coherency: gain exclusive ownership before the store.
        if (line.state() != cache::CoherencyState::kOwnedExclusive) {
            bus_.Upgrade(gva, cpu);
            kernel_.timing().Charge(sim::TimeBucket::kMissStall, 1);
        }
        cache::VirtualCache::MarkWritten(line);
        return;
    }

    events.Add(sim::MissEvent(ref.type));
    AccessMiss(cpu, gva, ref.type);
}

void
MpSpurSystem::AccessMiss(unsigned cpu, GlobalAddr gva, AccessType type)
{
    sim::EventCounts& events = kernel_.events();
    sim::TimingModel& timing = kernel_.timing();
    xlate::XlateResult xr = xlates_[cpu]->Translate(gva, events);
    timing.Charge(sim::TimeBucket::kXlate, xr.cycles);
    pt::Pte* pte = xr.pte;
    if (!pte->valid()) {
        pte = &kernel_.memory().HandlePageFault(gva);
    }

    const policy::RefCost ref_cost =
        kernel_.ref_policy().OnCacheMiss(*pte, events);
    timing.Charge(sim::TimeBucket::kFault, ref_cost.fault_cycles);

    if (type == AccessType::kWrite) {
        kernel_.ChargeDirty(
            kernel_.dirty_policy().OnWriteMiss(gva, *pte, events));
    }

    // The bus transaction settles ownership before the fill.
    if (type == AccessType::kWrite) {
        bus_.ReadOwned(gva, cpu);
    } else {
        bus_.Read(gva, cpu);
    }

    cache::Eviction eviction;
    cache::LineRef line =
        caches_[cpu]->Fill(gva, pte->protection(), pte->dirty(), &eviction);
    kernel_.ChargeFill(line, eviction, type);
}

}  // namespace spur::core
