/**
 * @file
 * Severity / violation / report types for the invariant-audit subsystem.
 *
 * An audit pass inspects simulator state and records a Violation for every
 * property it finds broken.  Violations always name the *invariant* (the
 * pass name), the *policy pair* the machine was running, and,
 * where one is involved, the *page* — so a report line is actionable
 * without a debugger: "which rule, on which page, under which policy".
 */
#ifndef SPUR_CHECK_REPORT_H_
#define SPUR_CHECK_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace spur::check {

/** Sentinel for "no specific page involved". */
inline constexpr GlobalVpn kNoPage = ~GlobalVpn{0};

/** How bad a violated invariant is. */
enum class Severity : uint8_t {
    kWarning,  ///< Suspicious but not provably wrong (statistical checks).
    kError,    ///< A hard state-machine invariant is broken.
};

/** Returns "warning" / "error". */
const char* ToString(Severity severity);

/** One broken invariant instance. */
struct Violation {
    std::string invariant;  ///< Pass name ("cache-pte-dirty").
    Severity severity = Severity::kError;
    std::string policy;     ///< Policy pair, e.g. "FAULT/MISS".
    GlobalVpn vpn = kNoPage; ///< Page involved, kNoPage when not page-level.
    std::string detail;     ///< Human-readable specifics.
};

/** Renders a violation as a single report line. */
std::string ToString(const Violation& violation);

/** The outcome of running one or more audit passes. */
class AuditReport
{
  public:
    AuditReport() = default;

    /** Notes that pass @p name ran (even if it found nothing). */
    void BeginPass(const std::string& name);

    /** Records a violation. */
    void Add(Violation violation);

    /** Convenience: record a violation against the current pass. */
    void Add(Severity severity, const std::string& policy, GlobalVpn vpn,
             std::string detail);

    /** True when no kError violations were recorded. */
    bool ok() const { return num_errors_ == 0; }

    /** All recorded violations, in detection order. */
    const std::vector<Violation>& violations() const { return violations_; }

    /** Names of the passes that ran, in order. */
    const std::vector<std::string>& passes() const { return passes_; }

    size_t NumErrors() const { return num_errors_; }
    size_t NumWarnings() const { return num_warnings_; }

    /** Violations recorded against pass @p invariant. */
    size_t CountFor(const std::string& invariant) const;

    /** Multi-line human-readable summary (one line per violation). */
    std::string Summary() const;

    /**
     * Panics with the full summary when the report contains errors;
     * @p where names the audit point for the message.  Warnings are
     * printed with Warn() but do not terminate.
     */
    void RaiseIfFailed(const std::string& where) const;

  private:
    std::vector<Violation> violations_;
    std::vector<std::string> passes_;
    size_t num_errors_ = 0;
    size_t num_warnings_ = 0;
};

}  // namespace spur::check

#endif  // SPUR_CHECK_REPORT_H_
