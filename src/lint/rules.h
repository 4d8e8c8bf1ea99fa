/**
 * @file
 * Internal interface between the per-file rule scan (rules.cc) and the
 * orchestrator (lint.cc).  Not installed; tools use lint.h.
 *
 * ScanSourceFile owns everything that can be computed from one file in
 * isolation — the text-rule violations, the allow() marker sites, and
 * the include list the layering pass consumes — so Analyze() only has
 * to merge per-file results in file order and run the cross-file
 * passes.
 */
#ifndef SPUR_LINT_RULES_H_
#define SPUR_LINT_RULES_H_

#include <string>
#include <vector>

#include "src/lint/cxx_scan.h"
#include "src/lint/lint.h"

namespace spur::lint {

/** Everything one file contributes to the analysis. */
struct FileScan {
    std::string path;  ///< Normalized.
    /// Findings of the per-file rules, in scan order.
    std::vector<Violation> violations;
    /// Every spur-lint: allow(...) marker (empty for rule-exempt files).
    std::vector<AllowSite> allows;
    /// Quoted #include directives, for the layering pass.
    std::vector<IncludeDirective> includes;
    /// kSchemaVersion definitions found when this file is the schema
    /// home (the tree-level missing-definition check needs the count).
    size_t schema_definitions = 0;
    bool is_schema_home = false;
};

/** Runs every per-file rule plus the include scan over one file. */
FileScan ScanSourceFile(const std::string& path,
                        const std::string& content);

/**
 * True when an allow(@p rule) marker in @p scan covers @p line (marker
 * on the same or the preceding line); marks the site used.  The
 * per-file rules and the cross-file passes in lint.cc both suppress
 * through this, so the dead-allow pass sees every consumer.
 */
bool Suppress(FileScan& scan, size_t line, const std::string& rule);

/** Rule names of the suppression-hygiene passes (defined in rules.cc,
 *  reported by lint.cc). */
inline constexpr char kDeadAllowRule[] = "dead-allow";
inline constexpr char kAllowBudgetRule[] = "allow-budget";

/** The schema rule spans file and tree level, so both halves share
 *  these (per-file in rules.cc, tree-level in lint.cc). */
inline constexpr char kSchemaVersionRule[] = "schema-version-once";
inline constexpr char kSchemaVersionHome[] = "src/stats/run_record.h";

}  // namespace spur::lint

#endif  // SPUR_LINT_RULES_H_
