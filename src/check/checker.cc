#include "src/check/checker.h"

#include "src/check/invariants.h"

namespace spur::check {

std::string
AuditContext::PolicyLabel() const
{
    std::string label = policy::ToString(dirty);
    label += '/';
    label += policy::ToString(ref);
    return label;
}

AuditReport
RunAllPasses(const AuditContext& context)
{
    AuditReport report;
    report.BeginPass(kPassCacheResident);
    CheckCacheResidency(context, report);
    report.BeginPass(kPassCachePteDirty);
    CheckCacheDirtyCoherence(context, report);
    report.BeginPass(kPassProtectionEmulation);
    CheckProtectionEmulation(context, report);
    report.BeginPass(kPassFrameTable);
    CheckFrameResidency(context, report);
    report.BeginPass(kPassFrameFreeList);
    CheckFrameFreeList(context, report);
    report.BeginPass(kPassBackingStore);
    CheckBackingStoreCounts(context, report);
    report.BeginPass(kPassRefFlush);
    CheckRefFlushHygiene(context, report);
    report.BeginPass(kPassMpCoherency);
    CheckMpCoherency(context, report);
    return report;
}

}  // namespace spur::check
