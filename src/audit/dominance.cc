#include "src/audit/dominance.h"

#include <algorithm>
#include <string>
#include <tuple>

namespace spur::audit {
namespace {

/** Everything that must match for two cells to be comparable. */
auto
KeyOf(const core::RunConfig& c)
{
    return std::tuple(c.workload, c.memory_mb, c.dirty, c.ref, c.refs, c.seed,
                      c.intensity);
}

/** Calls @p visit(i, r, base, run) for every rep r of every cell i whose
 *  @p field is not @p base_value, base being rep r of the cell that
 *  differs from i only in holding @p base_value there, if there is one. */
template <typename Field, typename Visit>
void
ForEachMatchedRun(const std::vector<core::RunConfig>& configs,
                  const std::vector<std::vector<core::RunResult>>& results,
                  Field core::RunConfig::*field, Field base_value,
                  Visit visit)
{
    for (size_t i = 0; i < configs.size(); ++i) {
        core::RunConfig base = configs[i];
        base.*field = base_value;
        const auto it = std::find_if(
            configs.begin(), configs.end(),
            [&](const auto& c) { return KeyOf(c) == KeyOf(base); });
        if (configs[i].*field == base_value || it == configs.end()) {
            continue;
        }
        const auto& base_runs = results[it - configs.begin()];
        const size_t reps = std::min(base_runs.size(), results[i].size());
        for (size_t r = 0; r < reps; ++r) {
            visit(i, r, base_runs[r], results[i][r]);
        }
    }
}

std::string
CellLabel(const core::RunConfig& config, size_t rep)
{
    return std::string(core::ToString(config.workload)) + '/' +
           std::to_string(config.memory_mb) + "MB seed=" +
           std::to_string(config.seed) + " rep=" + std::to_string(rep);
}

std::string
PolicyPair(const core::RunConfig& config)
{
    return std::string(policy::ToString(config.dirty)) + '/' +
           policy::ToString(config.ref);
}

}  // namespace

EventMask
MayMoveFromMin(policy::DirtyPolicyKind dirty, policy::RefPolicyKind ref)
{
    EventMask mask = 0;
    for (const MayMove& row : kMayMove) {
        if (row.dirty.value_or(dirty) == dirty &&
            row.ref.value_or(ref) == ref) {
            mask |= row.events;
        }
    }
    return mask;
}

AuditReport
AuditDominance(const std::vector<core::RunConfig>& configs,
               const std::vector<std::vector<core::RunResult>>& results)
{
    AuditReport report;

    report.BeginPass(kPassMinTrajectory);
    ForEachMatchedRun(
        configs, results, &core::RunConfig::dirty,
        policy::DirtyPolicyKind::kMin,
        [&](size_t i, size_t r, const auto& min, const auto& run) {
            const EventMask may_move =
                MayMoveFromMin(configs[i].dirty, configs[i].ref);
            for (size_t e = 0; e < sim::kNumEvents; ++e) {
                const auto event = static_cast<sim::Event>(e);
                const uint64_t count = run.events.Get(event);
                const uint64_t min_count = min.events.Get(event);
                if ((may_move & Events({event})) == 0 && count != min_count) {
                    report.Add(Severity::kError, PolicyPair(configs[i]),
                               check::kNoPage,
                               std::string(sim::ToString(event)) + " " +
                                   std::to_string(count) + " but MIN's " +
                                   std::to_string(min_count) + " on " +
                                   CellLabel(configs[i], r));
                    return;  // The first differing event only.
                }
            }
        });

    // REF cells are visited too; only NOREF's page-ins are bounded.
    report.BeginPass(kPassNorefPageIns);
    ForEachMatchedRun(
        configs, results, &core::RunConfig::ref, policy::RefPolicyKind::kMiss,
        [&](size_t i, size_t r, const auto& miss, const auto& run) {
            if (configs[i].ref == policy::RefPolicyKind::kNoRef &&
                run.page_ins < miss.page_ins) {
                report.Add(Severity::kWarning, PolicyPair(configs[i]),
                           check::kNoPage,
                           "NOREF paged in " + std::to_string(run.page_ins) +
                               " vs MISS's " + std::to_string(miss.page_ins) +
                               " on " + CellLabel(configs[i], r) +
                               " (reference bits should never hurt)");
            }
        });

    return report;
}

}  // namespace spur::audit
