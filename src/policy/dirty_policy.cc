#include "src/policy/dirty_policy.h"

#include "src/common/log.h"
#include "src/policy/policy_ops.h"

namespace spur::policy {

const char*
ToString(DirtyPolicyKind kind)
{
    switch (kind) {
      case DirtyPolicyKind::kMin: return "MIN";
      case DirtyPolicyKind::kFault: return "FAULT";
      case DirtyPolicyKind::kFlush: return "FLUSH";
      case DirtyPolicyKind::kSpur: return "SPUR";
      case DirtyPolicyKind::kWrite: return "WRITE";
      case DirtyPolicyKind::kSpurProt: return "SPUR-PROT";
      case DirtyPolicyKind::kWriteHw: return "WRITE-HW";
    }
    return "?";
}

std::optional<DirtyPolicyKind>
ParseDirtyPolicy(const std::string& name)
{
    for (const DirtyPolicyKind kind : kAllDirtyPolicies) {
        if (name == ToString(kind)) {
            return kind;
        }
    }
    return std::nullopt;
}

namespace {

/**
 * Virtual-dispatch adapter over the compile-time ops in policy_ops.h;
 * the devirtualized hot path instantiates DirtyOps<K> directly instead.
 */
template <DirtyPolicyKind K>
class DirtyPolicyImpl final : public DirtyPolicy
{
  public:
    DirtyPolicyImpl(cache::PageFlusher& flusher,
                    const sim::MachineConfig& config)
        : flusher_(flusher), config_(config)
    {
    }

    DirtyPolicyKind kind() const override { return K; }

    Protection ResidentProtection(bool writable) const override
    {
        return DirtyOps<K>::ResidentProtection(writable);
    }

    bool WriteHitFastPath(cache::ConstLineRef line) const override
    {
        return DirtyOps<K>::WriteHitFastPath(line);
    }

    DirtyCost OnWriteHit(cache::LineRef line, GlobalAddr addr, pt::Pte& pte,
                         sim::EventCounts& events) override
    {
        return DirtyOps<K>::OnWriteHit(line, addr, pte, events, flusher_,
                                       config_);
    }

    DirtyCost OnWriteMiss(GlobalAddr addr, pt::Pte& pte,
                          sim::EventCounts& events) override
    {
        return DirtyOps<K>::OnWriteMiss(addr, pte, events, flusher_,
                                        config_);
    }

    bool IsPageDirty(const pt::Pte& pte) const override
    {
        return DirtyOps<K>::IsPageDirty(pte);
    }

  private:
    cache::PageFlusher& flusher_;
    const sim::MachineConfig& config_;
};

}  // namespace

std::unique_ptr<DirtyPolicy>
MakeDirtyPolicy(DirtyPolicyKind kind, cache::PageFlusher& flusher,
                const sim::MachineConfig& config)
{
    switch (kind) {
      case DirtyPolicyKind::kMin:
        return std::make_unique<DirtyPolicyImpl<DirtyPolicyKind::kMin>>(
            flusher, config);
      case DirtyPolicyKind::kFault:
        return std::make_unique<DirtyPolicyImpl<DirtyPolicyKind::kFault>>(
            flusher, config);
      case DirtyPolicyKind::kFlush:
        return std::make_unique<DirtyPolicyImpl<DirtyPolicyKind::kFlush>>(
            flusher, config);
      case DirtyPolicyKind::kSpur:
        return std::make_unique<DirtyPolicyImpl<DirtyPolicyKind::kSpur>>(
            flusher, config);
      case DirtyPolicyKind::kWrite:
        return std::make_unique<DirtyPolicyImpl<DirtyPolicyKind::kWrite>>(
            flusher, config);
      case DirtyPolicyKind::kSpurProt:
        return std::make_unique<DirtyPolicyImpl<DirtyPolicyKind::kSpurProt>>(
            flusher, config);
      case DirtyPolicyKind::kWriteHw:
        return std::make_unique<DirtyPolicyImpl<DirtyPolicyKind::kWriteHw>>(
            flusher, config);
    }
    Panic("MakeDirtyPolicy: bad kind");
}

}  // namespace spur::policy
