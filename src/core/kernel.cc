#include "src/core/kernel.h"

#include <string>

#include "src/common/log.h"

namespace spur::core {

namespace {

/** Validates @p config before any member is built from it. */
const sim::MachineConfig&
Validated(const sim::MachineConfig& config)
{
    config.Validate();
    return config;
}

}  // namespace

Kernel::Kernel(const sim::MachineConfig& config, cache::PageFlusher& flusher,
               policy::DirtyPolicyKind dirty, policy::RefPolicyKind ref,
               std::unique_ptr<policy::RefPolicy> ref_impl)
    : config_(Validated(config)),
      timing_(config_),
      flusher_(flusher),
      dirty_(policy::MakeDirtyPolicy(dirty)),
      ref_(ref_impl != nullptr ? std::move(ref_impl)
                               : policy::MakeRefPolicy(ref, flusher, config_)),
      vm_(config_, table_, flusher, events_, timing_),
      block_fetch_cycles_(config_.BlockFetchCycles())
{
    vm_.SetPolicies(dirty_.get(), ref_.get());
}

Pid
Kernel::CreateProcess()
{
    const Pid pid = segmap_.CreateProcess();
    process_regions_[pid];
    return pid;
}

void
Kernel::DestroyProcess(Pid pid)
{
    auto it = process_regions_.find(pid);
    if (it == process_regions_.end()) {
        Fatal("Kernel: destroying unknown pid " + std::to_string(pid));
    }
    for (const auto& [base, start_vpn] : it->second) {
        vm_.UnmapRegion(start_vpn);
    }
    process_regions_.erase(it);
    segmap_.DestroyProcess(pid);
    OnContextSwitch();
}

void
Kernel::MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                  vm::PageKind kind)
{
    const uint64_t page_bytes = config_.page_bytes;
    if (base % page_bytes != 0 || bytes == 0 || bytes % page_bytes != 0) {
        Fatal("Kernel: region must be page aligned and nonempty");
    }
    auto it = process_regions_.find(pid);
    if (it == process_regions_.end()) {
        Fatal("Kernel: MapRegion on unknown pid " + std::to_string(pid));
    }
    const GlobalAddr gva = segmap_.ToGlobal(pid, base);
    const GlobalVpn start = gva >> config_.PageShift();
    vm_.MapRegion(start, bytes / page_bytes, kind);
    it->second.emplace(base, start);
}

void
Kernel::OnContextSwitch()
{
    events_.Add(sim::Event::kContextSwitch);
    timing_.Charge(sim::TimeBucket::kKernel, config_.t_context_switch);
}

void
Kernel::ClearRefBit(GlobalAddr gva)
{
    pt::Pte* pte = table_.FindMutable(gva >> config_.PageShift());
    if (pte == nullptr || !pte->valid()) {
        Panic("Kernel::ClearRefBit: page not resident");
    }
    const GlobalAddr page_addr = gva & ~(config_.page_bytes - 1);
    const policy::RefCost cost = ref_->ClearRefBit(*pte, page_addr, events_);
    timing_.Charge(sim::TimeBucket::kKernel, cost.kernel_cycles);
    timing_.Charge(sim::TimeBucket::kFlush, cost.flush_cycles);
}

void
Kernel::FlushPage(GlobalAddr gva)
{
    const GlobalAddr page_addr = gva & ~(config_.page_bytes - 1);
    const cache::FlushResult result = flusher_.FlushPageChecked(page_addr);
    events_.Add(sim::Event::kPageFlush);
    events_.Add(sim::Event::kBlockFlush, result.blocks_flushed);
    events_.Add(sim::Event::kWriteback, result.writebacks);
    timing_.Charge(sim::TimeBucket::kFlush,
                   config_.t_flush_page * flusher_.NumFlushTargets());
}

void
Kernel::PanicHitOnNonResidentPage()
{
    Panic("Kernel: cache hit on a non-resident page (reclaim missed a "
          "flush?)");
}

check::AuditReport
Kernel::Audit() const
{
    check::AuditContext context;
    context.config = &config_;
    context.caches = audited_caches_;
    context.table = &table_;
    context.frames = &vm_.frames();
    context.store = &vm_.store();
    context.regions = &vm_.regions();
    context.events = &events_;
    context.dirty = dirty_->kind();
    context.ref = ref_->kind();
    return check::RunAllPasses(context);
}

}  // namespace spur::core
