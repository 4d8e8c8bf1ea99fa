#include "src/policy/dirty_policy.h"

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

/** The page daemon's view of DirtyOps<K> (policy_ops.h). */
template <DirtyPolicyKind K>
class DirtyPolicyImpl final : public DirtyPolicy
{
  public:
    DirtyPolicyKind kind() const override { return K; }

    Protection ResidentProtection(bool writable) const override
    {
        return DirtyOps<K>::ResidentProtection(writable);
    }

    bool IsPageDirty(const pt::Pte& pte) const override
    {
        return DirtyOps<K>::IsPageDirty(pte);
    }
};

}  // namespace

std::unique_ptr<DirtyPolicy>
MakeDirtyPolicy(DirtyPolicyKind kind)
{
    return Dispatch(kind, []<DirtyPolicyKind K>() {
        return std::unique_ptr<DirtyPolicy>(
            std::make_unique<DirtyPolicyImpl<K>>());
    });
}

}  // namespace spur::policy
