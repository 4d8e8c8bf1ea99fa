#include "src/policy/ref_policy.h"

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

/** The page daemon's view of RefOps<K> (policy_ops.h). */
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
    return Dispatch(kind, [&]<RefPolicyKind K>() {
        return std::unique_ptr<RefPolicy>(
            std::make_unique<RefPolicyImpl<K>>(flusher, config));
    });
}

}  // namespace spur::policy
