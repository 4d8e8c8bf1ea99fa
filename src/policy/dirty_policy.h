/**
 * @file
 * The five dirty-bit maintenance alternatives of Section 3 (Table 3.1).
 *
 * | Policy | Mechanism                                                    |
 * |--------|--------------------------------------------------------------|
 * | FAULT  | Emulate dirty bits with protection; writes to previously    |
 * |        | cached blocks cause *excess faults*.                         |
 * | FLUSH  | FAULT, plus flush the page from the cache on the first      |
 * |        | fault, preventing excess faults.                             |
 * | SPUR   | Cache a copy of the page dirty bit with each block; check   |
 * |        | the PTE before faulting; refresh stale copies with a cheap  |
 * |        | *dirty-bit miss*.                                            |
 * | WRITE  | Check the PTE on the first write to each cache block        |
 * |        | (Sun-3 style, but faulting to software).                     |
 * | MIN    | Oracle: only the intrinsic necessary faults, no checking    |
 * |        | overhead.  Lower bound for comparisons.                      |
 *
 * Two variants the paper describes but did not build are also provided:
 *
 * | SPUR-PROT | Section 3.1's generalized SPUR scheme applied to the     |
 * |           | protection field instead of an explicit dirty bit: a     |
 * |           | stale read-only cached copy is refreshed with a          |
 * |           | "protection bit miss" after checking the PTE.  The paper |
 * |           | notes its performance is identical to SPUR's; the test   |
 * |           | suite verifies that equivalence.                          |
 * | WRITE-HW  | The actual Sun-3 mechanism: the hardware *updates* the   |
 * |           | dirty bit itself on the first write to each block — no   |
 * |           | faults at all, but the per-block check cost remains.      |
 *
 * All policies share the software fault handler (cost t_ds) that actually
 * sets the dirty information in the PTE; they differ in *when* control
 * reaches it and what hardware checking costs accrue.
 */
#ifndef SPUR_POLICY_DIRTY_POLICY_H_
#define SPUR_POLICY_DIRTY_POLICY_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/types.h"
#include "src/pt/pte.h"

namespace spur::policy {

/** Selector for the dirty-bit alternative. */
enum class DirtyPolicyKind : uint8_t {
    kMin,
    kFault,
    kFlush,
    kSpur,
    kWrite,
    kSpurProt,  ///< SPUR semantics on the protection field (no extra bit).
    kWriteHw,   ///< Sun-3 hardware dirty-bit update (no faults).
};

/** Returns the paper's name for the policy ("FAULT", "SPUR", ...). */
const char* ToString(DirtyPolicyKind kind);

/** Every dirty-bit alternative, in declaration order. */
inline constexpr DirtyPolicyKind kAllDirtyPolicies[] = {
    DirtyPolicyKind::kMin,   DirtyPolicyKind::kFault,
    DirtyPolicyKind::kFlush, DirtyPolicyKind::kSpur,
    DirtyPolicyKind::kWrite, DirtyPolicyKind::kSpurProt,
    DirtyPolicyKind::kWriteHw,
};

/** The policy ToString() spells @p name, or nullopt. */
std::optional<DirtyPolicyKind> ParseDirtyPolicy(const std::string& name);

/** Cycle charges produced by a policy action, by destination bucket. */
struct DirtyCost {
    Cycles fault_cycles = 0;  ///< Software fault handler time.
    Cycles flush_cycles = 0;  ///< Page flush time (FLUSH policy).
    Cycles aux_cycles = 0;    ///< Dirty-bit misses / PTE dirty checks.
    /// The written line was invalidated (page flushed); the system must
    /// re-execute the write as a cache miss.
    bool line_invalidated = false;
};

/**
 * A dirty-bit policy as the page daemon sees it: the protection a clean
 * page is mapped with, and whether a page is modified.  What the policy
 * does on each write (DirtyOps<K> in policy_ops.h) runs in the machines'
 * compile-time access path (src/core/access_path.h), not through here.
 */
class DirtyPolicy
{
  public:
    virtual ~DirtyPolicy() = default;

    DirtyPolicy(const DirtyPolicy&) = delete;
    DirtyPolicy& operator=(const DirtyPolicy&) = delete;

    /** Which alternative this is. */
    virtual DirtyPolicyKind kind() const = 0;

    /**
     * Protection value the VM installs in the PTE when a page becomes
     * resident while clean.  FAULT/FLUSH deliberately under-protect
     * writable pages as read-only; the others install the real protection.
     */
    virtual Protection ResidentProtection(bool writable) const = 0;

    /**
     * The policy's notion of "this page is modified", consulted by the
     * page daemon at replacement time.  FAULT/FLUSH use the software
     * dirty bit; the hardware policies use the PTE D bit.
     */
    virtual bool IsPageDirty(const pt::Pte& pte) const = 0;

  protected:
    DirtyPolicy() = default;
};

/** Creates the page daemon's view of policy @p kind. */
std::unique_ptr<DirtyPolicy> MakeDirtyPolicy(DirtyPolicyKind kind);

}  // namespace spur::policy

#endif  // SPUR_POLICY_DIRTY_POLICY_H_
