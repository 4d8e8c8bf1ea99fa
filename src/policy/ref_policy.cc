#include "src/policy/ref_policy.h"

#include "src/common/log.h"
#include "src/policy/policy_ops.h"

namespace spur::policy {

const char*
ToString(RefPolicyKind kind)
{
    switch (kind) {
      case RefPolicyKind::kMiss: return "MISS";
      case RefPolicyKind::kRef: return "REF";
      case RefPolicyKind::kNoRef: return "NOREF";
    }
    return "?";
}

std::optional<RefPolicyKind>
ParseRefPolicy(const std::string& name)
{
    for (const RefPolicyKind kind : kAllRefPolicies) {
        if (name == ToString(kind)) {
            return kind;
        }
    }
    return std::nullopt;
}

namespace {

/**
 * Virtual-dispatch adapter over the compile-time ops in policy_ops.h;
 * see DirtyPolicyImpl in dirty_policy.cc for the pattern.
 */
template <RefPolicyKind K>
class RefPolicyImpl final : public RefPolicy
{
  public:
    RefPolicyImpl(cache::PageFlusher& flusher,
                  const sim::MachineConfig& config)
        : flusher_(flusher), config_(config)
    {
    }

    RefPolicyKind kind() const override { return K; }

    RefCost OnCacheMiss(pt::Pte& pte, sim::EventCounts& events) override
    {
        return RefOps<K>::OnCacheMiss(pte, events, config_);
    }

    bool ReadRefBit(const pt::Pte& pte) const override
    {
        return RefOps<K>::ReadRefBit(pte);
    }

    RefCost ClearRefBit(pt::Pte& pte, GlobalAddr page_addr,
                        sim::EventCounts& events) override
    {
        return RefOps<K>::ClearRefBit(pte, page_addr, events, flusher_,
                                      config_);
    }

  private:
    cache::PageFlusher& flusher_;
    const sim::MachineConfig& config_;
};

}  // namespace

std::unique_ptr<RefPolicy>
MakeRefPolicy(RefPolicyKind kind, cache::PageFlusher& flusher,
              const sim::MachineConfig& config)
{
    switch (kind) {
      case RefPolicyKind::kMiss:
        return std::make_unique<RefPolicyImpl<RefPolicyKind::kMiss>>(
            flusher, config);
      case RefPolicyKind::kRef:
        return std::make_unique<RefPolicyImpl<RefPolicyKind::kRef>>(
            flusher, config);
      case RefPolicyKind::kNoRef:
        return std::make_unique<RefPolicyImpl<RefPolicyKind::kNoRef>>(
            flusher, config);
    }
    Panic("MakeRefPolicy: bad kind");
}

}  // namespace spur::policy
