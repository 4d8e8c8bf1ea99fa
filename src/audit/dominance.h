/**
 * @file
 * Cross-policy audits that runner::RunMatrix runs over every finished
 * matrix, on cells that match in all but the policy under test:
 *
 *  - min-trajectory (errors): Section 3.2 prices each dirty policy
 *    against MIN on the same reference stream, where a policy moves only
 *    the events kMayMove gives it and every other event equals MIN's.
 *  - noref-page-ins (warnings): NOREF replaces in sweep order, so it
 *    pages in at least as much as MISS (Table 4.1).  The paper claims
 *    this for memory-constrained runs only; at large memories they meet.
 */
#ifndef SPUR_SRC_AUDIT_DOMINANCE_H_
#define SPUR_SRC_AUDIT_DOMINANCE_H_

#include <initializer_list>
#include <optional>
#include <vector>

#include "src/check/report.h"
#include "src/core/experiment.h"

namespace spur::audit {

// Reported through the machine checker's types (src/check/report.h).
using check::AuditReport;
using check::Severity;

inline constexpr const char* kPassMinTrajectory = "min-trajectory";
inline constexpr const char* kPassNorefPageIns = "noref-page-ins";

/** A set of sim::Events: bit i stands for the event numbered i. */
using EventMask = uint64_t;
static_assert(sim::kNumEvents <= 64, "EventMask needs one bit per event");

/** The set holding exactly @p events. */
constexpr EventMask
Events(std::initializer_list<sim::Event> events)
{
    EventMask mask = 0;
    for (const sim::Event event : events) {
        mask |= EventMask{1} << static_cast<unsigned>(event);
    }
    return mask;
}

/** What a page flush changes: which blocks are cached, hence the misses
 *  that refill them, their translations, the write-backs and reclaim
 *  flushes of what stays, and which writes find a clean block. */
inline constexpr EventMask kCacheContentEvents = Events(
    {sim::Event::kIFetchMiss, sim::Event::kReadMiss, sim::Event::kWriteMiss,
     sim::Event::kWriteback, sim::Event::kBlockFlush,
     sim::Event::kXlatePteHit, sim::Event::kXlatePteMiss,
     sim::Event::kXlateL2Access, sim::Event::kWriteHitCleanBlock,
     sim::Event::kWriteMissFill});

/** A kMayMove row: the events its (dirty, ref) pairs may move. */
struct MayMove {
    std::optional<policy::DirtyPolicyKind> dirty;  ///< nullopt: any.
    std::optional<policy::RefPolicyKind> ref;      ///< nullopt: any.
    EventMask events;
};

/** The one home of what a dirty policy may change.  A pair may move the
 *  union of the rows that match it; every other event equals MIN's. */
inline constexpr MayMove kMayMove[] = {
    // The policies' own mechanism counts: SPUR's stale cached dirty
    // bits (N_dm), FAULT's excess faults (N_ef), WRITE's PTE probes.
    {std::nullopt, std::nullopt,
     Events({sim::Event::kDirtyBitMiss, sim::Event::kExcessFault,
             sim::Event::kDirtyCheck})},
    // FLUSH empties the page on each dirty fault.  Under REF a page
    // whose bit is clear has no cached block (the clear flushed it), and
    // NOREF keeps no bits, so the extra misses set no reference bit and
    // paging stays MIN's.
    {policy::DirtyPolicyKind::kFlush, policy::RefPolicyKind::kRef,
     kCacheContentEvents},
    {policy::DirtyPolicyKind::kFlush, policy::RefPolicyKind::kNoRef,
     kCacheContentEvents},
    // FLUSH/MISS has no identity: its flushes' misses set reference
    // bits, so the page daemon then pages differently.
    {policy::DirtyPolicyKind::kFlush, policy::RefPolicyKind::kMiss,
     ~EventMask{0}},
};

/** The union of kMayMove's rows that match @p dirty / @p ref. */
EventMask MayMoveFromMin(policy::DirtyPolicyKind dirty,
                         policy::RefPolicyKind ref);

/** Runs both passes over @p results, shaped result[i][r] as RunMatrix
 *  returns them for @p configs.  Cells without a matched partner are
 *  skipped. */
AuditReport AuditDominance(
    const std::vector<core::RunConfig>& configs,
    const std::vector<std::vector<core::RunResult>>& results);

}  // namespace spur::audit

#endif  // SPUR_SRC_AUDIT_DOMINANCE_H_
