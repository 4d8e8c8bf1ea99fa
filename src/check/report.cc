#include "src/check/report.h"

#include <sstream>

#include "src/common/log.h"

namespace spur::check {

const char*
ToString(Severity severity)
{
    switch (severity) {
      case Severity::kWarning: return "warning";
      case Severity::kError: return "error";
    }
    return "?";
}

std::string
ToString(const Violation& violation)
{
    std::ostringstream out;
    out << ToString(violation.severity) << " [" << violation.invariant
        << "] policy=" << violation.policy;
    if (violation.vpn != kNoPage) {
        out << " page=0x" << std::hex << violation.vpn << std::dec;
    }
    out << ": " << violation.detail;
    return out.str();
}

void
AuditReport::BeginPass(const std::string& name)
{
    passes_.push_back(name);
}

void
AuditReport::Add(Violation violation)
{
    if (violation.severity == Severity::kError) {
        ++num_errors_;
    } else {
        ++num_warnings_;
    }
    violations_.push_back(std::move(violation));
}

void
AuditReport::Add(Severity severity, const std::string& policy, GlobalVpn vpn,
                 std::string detail)
{
    Violation violation;
    violation.invariant = passes_.empty() ? "<unregistered>" : passes_.back();
    violation.severity = severity;
    violation.policy = policy;
    violation.vpn = vpn;
    violation.detail = std::move(detail);
    Add(std::move(violation));
}

size_t
AuditReport::CountFor(const std::string& invariant) const
{
    size_t count = 0;
    for (const Violation& violation : violations_) {
        if (violation.invariant == invariant) {
            ++count;
        }
    }
    return count;
}

std::string
AuditReport::Summary() const
{
    std::ostringstream out;
    out << "audit: " << passes_.size() << " passes, " << num_errors_
        << " errors, " << num_warnings_ << " warnings";
    for (const Violation& violation : violations_) {
        out << "\n  " << ToString(violation);
    }
    return out.str();
}

void
AuditReport::RaiseIfFailed(const std::string& where) const
{
    if (num_warnings_ != 0 && num_errors_ == 0) {
        Warn("audit at " + where + ": " + Summary());
    }
    if (num_errors_ != 0) {
        Panic("audit failed at " + where + ": " + Summary());
    }
}

}  // namespace spur::check
