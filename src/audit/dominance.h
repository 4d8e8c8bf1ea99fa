/**
 * @file
 * Cross-policy dominance audits over a finished experiment matrix.
 *
 * Two properties of the paper's experiment design are checkable from run
 * results alone, on cells that match in everything except the policy
 * under test (same workload, memory size, reference budget and seed):
 *
 *  - MIN is by construction a lower bound on every real dirty-bit
 *    alternative: its intrinsic dirty-fault count (N_ds - N_zfod,
 *    Section 3.2) can never exceed SPUR/WRITE/FAULT/FLUSH's on the same
 *    cell, because MIN takes exactly the necessary faults and nothing
 *    else ever removes one.
 *  - NOREF degenerates replacement to sweep order, so on a matched cell
 *    it pages in at least as much as MISS (Table 4.1's comparison).
 *    This one is reported as a *warning*: at large memories the two
 *    converge and the paper itself only claims the inequality for
 *    memory-constrained runs.
 *
 * runner::RunMatrix invokes this automatically after every matrix in
 * audit builds (SPUR_AUDIT=ON).
 */
#ifndef SPUR_AUDIT_DOMINANCE_H_
#define SPUR_AUDIT_DOMINANCE_H_

#include <vector>

#include "src/check/report.h"
#include "src/core/experiment.h"

namespace spur::audit {

// Result-level audits report through the same severity/report types as
// the machine-state checker (src/check/report.h), so both raise and
// render the same way.
using check::AuditReport;
using check::Severity;

// Pass names used in dominance violations.
inline constexpr const char* kPassMinDominance = "min-dominance";
inline constexpr const char* kPassNorefPageIns = "noref-page-ins";

/** A run's intrinsic dirty faults: N_ds minus the zero-fill subset. */
uint64_t IntrinsicDirtyFaults(const core::RunResult& result);

/**
 * Audits dominance across @p results (shaped result[i][r] as returned by
 * RunMatrix for @p configs).  Cells are grouped by every config field
 * except the policy being compared; groups lacking a comparison partner
 * are skipped.
 */
AuditReport AuditDominance(
    const std::vector<core::RunConfig>& configs,
    const std::vector<std::vector<core::RunResult>>& results);

}  // namespace spur::audit

#endif  // SPUR_AUDIT_DOMINANCE_H_
