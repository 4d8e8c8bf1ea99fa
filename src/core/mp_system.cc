// spur:hot-path
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
        cpus_.push_back({kernel_, *caches_.back(), *xlates_.back(),
                         BusCoherence{&bus_, cpu, &flusher_}});
    }
    kernel_.SetAuditedCaches(std::move(audited));
    policy::Dispatch(dirty, ref, [this]<policy::DirtyPolicyKind D,
                                        policy::RefPolicyKind R>() {
        access_fn_ = &AccessPath<D, R, BusCoherence>::Access;
    });
}

MpSpurSystem::~MpSpurSystem() = default;

}  // namespace spur::core
