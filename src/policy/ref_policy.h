/**
 * @file
 * The three reference-bit policies of Section 4.
 *
 * | Policy | Mechanism                                                     |
 * |--------|---------------------------------------------------------------|
 * | MISS   | Check the reference bit only on cache misses (free: the PTE  |
 * |        | is in hand for translation); fault to software to set it.    |
 * |        | Blocks that stay cache-resident never re-set the bit, so the |
 * |        | daemon can replace genuinely active pages.                    |
 * | REF    | True reference bits: the daemon flushes the page from the    |
 * |        | cache whenever it clears the bit, guaranteeing the next      |
 * |        | reference misses and re-sets it.                              |
 * | NOREF  | No reference bits: reads of the bit always return false and  |
 * |        | clears are no-ops (the hardware bit stays set so no ref      |
 * |        | faults ever occur); replacement degenerates to sweep order.   |
 */
#ifndef SPUR_POLICY_REF_POLICY_H_
#define SPUR_POLICY_REF_POLICY_H_

#include <memory>
#include <optional>
#include <string>

#include "src/cache/flusher.h"
#include "src/common/types.h"
#include "src/pt/pte.h"
#include "src/sim/config.h"
#include "src/sim/events.h"

namespace spur::policy {

/** Selector for the reference-bit policy. */
enum class RefPolicyKind : uint8_t {
    kMiss,
    kRef,
    kNoRef,
};

/** Returns the paper's name for the policy ("MISS", "REF", "NOREF"). */
const char* ToString(RefPolicyKind kind);

/** Every reference-bit policy, in declaration order. */
inline constexpr RefPolicyKind kAllRefPolicies[] = {
    RefPolicyKind::kMiss, RefPolicyKind::kRef, RefPolicyKind::kNoRef};

/** The policy ToString() spells @p name, or nullopt. */
std::optional<RefPolicyKind> ParseRefPolicy(const std::string& name);

/** Cycle charges from a reference-bit action. */
struct RefCost {
    Cycles fault_cycles = 0;   ///< Reference faults (software handler).
    Cycles flush_cycles = 0;   ///< Page flushes on clear (REF policy).
    Cycles kernel_cycles = 0;  ///< Bit clearing work in the daemon.
};

/**
 * A reference-bit policy as the page daemon sees it: its read and its
 * clear of a page's bit.  The check on every cache miss (RefOps<K> in
 * policy_ops.h) runs in the machines' compile-time access path
 * (src/core/access_path.h), not through here.
 */
class RefPolicy
{
  public:
    virtual ~RefPolicy() = default;

    RefPolicy(const RefPolicy&) = delete;
    RefPolicy& operator=(const RefPolicy&) = delete;

    /** Which policy this is. */
    virtual RefPolicyKind kind() const = 0;

    /** The page daemon's read of the reference bit. */
    virtual bool ReadRefBit(const pt::Pte& pte) const = 0;

    /**
     * The page daemon's clear of the reference bit for page @p vpn whose
     * blocks live at global page address @p page_addr.
     */
    virtual RefCost ClearRefBit(pt::Pte& pte, GlobalAddr page_addr,
                                sim::EventCounts& events) = 0;

  protected:
    RefPolicy() = default;
};

/** Creates the page daemon's view of policy @p kind (REF flushes pages
 *  through the machine's cache(s) when clearing bits). */
std::unique_ptr<RefPolicy> MakeRefPolicy(RefPolicyKind kind,
                                         cache::PageFlusher& flusher,
                                         const sim::MachineConfig& config);

}  // namespace spur::policy

#endif  // SPUR_POLICY_REF_POLICY_H_
