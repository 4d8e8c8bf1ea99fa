/**
 * @file
 * The audit entry point: RunAllPasses cross-validates simulator state
 * against the paper's state-machine invariants.
 *
 * A *pass* is a named function over an AuditContext — a read-only view of
 * one machine's caches, page table, frame table, backing store and policy
 * selection.  Passes record what they find in an AuditReport; they never
 * mutate state and never terminate the process themselves (the caller
 * decides, via AuditReport::RaiseIfFailed, whether a violation is fatal).
 *
 * RunAllPasses runs every pass in invariants.h in a fixed order; tests
 * call a single pass directly after report.BeginPass(name).
 */
#ifndef SPUR_CHECK_CHECKER_H_
#define SPUR_CHECK_CHECKER_H_

#include <string>
#include <vector>

#include "src/cache/cache.h"
#include "src/check/report.h"
#include "src/common/types.h"
#include "src/mem/backing_store.h"
#include "src/mem/frame_table.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/pt/page_table.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/vm/region.h"

namespace spur::check {

/**
 * Read-only view of one machine's auditable state.  Uniprocessors put
 * their single cache in `caches`; the multiprocessor lists all of them
 * (which additionally arms the cross-cache coherency pass).  Optional
 * members may be null; passes needing them skip silently.
 */
struct AuditContext {
    const sim::MachineConfig* config = nullptr;
    std::vector<const cache::VirtualCache*> caches;
    const pt::PageTable* table = nullptr;
    const mem::FrameTable* frames = nullptr;
    const mem::BackingStore* store = nullptr;   ///< Optional.
    const vm::RegionMap* regions = nullptr;     ///< Optional.
    const sim::EventCounts* events = nullptr;   ///< Optional.
    policy::DirtyPolicyKind dirty = policy::DirtyPolicyKind::kSpur;
    policy::RefPolicyKind ref = policy::RefPolicyKind::kMiss;

    /** "DIRTY/REF" label used in violation records. */
    std::string PolicyLabel() const;
};

/**
 * Runs the eight passes of invariants.h over @p context, each under
 * report.BeginPass(name), in the order of that file's pass table.
 */
AuditReport RunAllPasses(const AuditContext& context);

}  // namespace spur::check

#endif  // SPUR_CHECK_CHECKER_H_
