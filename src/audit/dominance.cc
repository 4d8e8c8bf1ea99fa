#include "src/audit/dominance.h"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

namespace spur::audit {

namespace {

/** Everything that must match for two cells to be comparable, minus the
 *  dirty policy (MIN dominance) — the ref policy stays in the key. */
using DirtyGroupKey = std::tuple<uint8_t, uint32_t, uint8_t, uint64_t,
                                 uint64_t, double>;

DirtyGroupKey
DirtyKey(const core::RunConfig& config)
{
    return {static_cast<uint8_t>(config.workload), config.memory_mb,
            static_cast<uint8_t>(config.ref), config.refs, config.seed,
            config.intensity};
}

/** Matching key for the NOREF-vs-MISS page-in comparison (ref policy
 *  removed, dirty policy kept). */
using RefGroupKey = std::tuple<uint8_t, uint32_t, uint8_t, uint64_t,
                               uint64_t, double>;

RefGroupKey
RefKey(const core::RunConfig& config)
{
    return {static_cast<uint8_t>(config.workload), config.memory_mb,
            static_cast<uint8_t>(config.dirty), config.refs, config.seed,
            config.intensity};
}

std::string
CellLabel(const core::RunConfig& config, uint32_t rep)
{
    std::string label = core::ToString(config.workload);
    label += '/';
    label += std::to_string(config.memory_mb);
    label += "MB seed=";
    label += std::to_string(config.seed);
    label += " rep=";
    label += std::to_string(rep);
    return label;
}

std::string
PolicyPair(const core::RunConfig& config)
{
    std::string label = policy::ToString(config.dirty);
    label += '/';
    label += policy::ToString(config.ref);
    return label;
}

}  // namespace

uint64_t
IntrinsicDirtyFaults(const core::RunResult& result)
{
    return result.events.Get(sim::Event::kDirtyFault) -
           result.events.Get(sim::Event::kDirtyFaultZfod);
}

AuditReport
AuditDominance(const std::vector<core::RunConfig>& configs,
               const std::vector<std::vector<core::RunResult>>& results)
{
    AuditReport report;

    // ---- MIN <= every real dirty-bit alternative -------------------------
    report.BeginPass(kPassMinDominance);
    std::map<DirtyGroupKey, size_t> min_cell;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].dirty == policy::DirtyPolicyKind::kMin) {
            min_cell[DirtyKey(configs[i])] = i;
        }
    }
    for (size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].dirty == policy::DirtyPolicyKind::kMin) {
            continue;
        }
        const auto it = min_cell.find(DirtyKey(configs[i]));
        if (it == min_cell.end()) {
            continue;  // No matched MIN run to compare against.
        }
        const auto& min_runs = results[it->second];
        const auto& other_runs = results[i];
        const size_t reps = std::min(min_runs.size(), other_runs.size());
        for (size_t r = 0; r < reps; ++r) {
            const uint64_t min_faults = IntrinsicDirtyFaults(min_runs[r]);
            const uint64_t other_faults =
                IntrinsicDirtyFaults(other_runs[r]);
            if (min_faults <= other_faults) {
                continue;
            }
            const std::string detail =
                "MIN took " + std::to_string(min_faults) +
                " intrinsic dirty faults but " +
                policy::ToString(configs[i].dirty) + " took only " +
                std::to_string(other_faults) + " on " +
                CellLabel(configs[i], static_cast<uint32_t>(r));
            // FLUSH/MISS pages differently from MIN once its flushes'
            // misses set other reference bits (see dominance.h).
            const uint64_t min_page_ins = min_runs[r].page_ins;
            const uint64_t other_page_ins = other_runs[r].page_ins;
            if (configs[i].dirty == policy::DirtyPolicyKind::kFlush &&
                configs[i].ref == policy::RefPolicyKind::kMiss &&
                min_page_ins != other_page_ins) {
                report.Add(Severity::kWarning, PolicyPair(configs[i]),
                           check::kNoPage,
                           detail + ", where MIN paged in " +
                               std::to_string(min_page_ins) + " and FLUSH " +
                               std::to_string(other_page_ins));
                continue;
            }
            report.Add(Severity::kError, PolicyPair(configs[i]),
                       check::kNoPage,
                       detail + " (MIN must be a lower bound)");
        }
    }

    // ---- NOREF page-ins >= MISS page-ins ---------------------------------
    report.BeginPass(kPassNorefPageIns);
    std::map<RefGroupKey, size_t> miss_cell;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].ref == policy::RefPolicyKind::kMiss) {
            miss_cell[RefKey(configs[i])] = i;
        }
    }
    for (size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].ref != policy::RefPolicyKind::kNoRef) {
            continue;
        }
        const auto it = miss_cell.find(RefKey(configs[i]));
        if (it == miss_cell.end()) {
            continue;
        }
        const auto& miss_runs = results[it->second];
        const auto& noref_runs = results[i];
        const size_t reps = std::min(miss_runs.size(), noref_runs.size());
        for (size_t r = 0; r < reps; ++r) {
            if (noref_runs[r].page_ins < miss_runs[r].page_ins) {
                report.Add(
                    Severity::kWarning, PolicyPair(configs[i]), check::kNoPage,
                    "NOREF paged in " +
                        std::to_string(noref_runs[r].page_ins) +
                        " vs MISS's " +
                        std::to_string(miss_runs[r].page_ins) + " on " +
                        CellLabel(configs[i], static_cast<uint32_t>(r)) +
                        " (reference bits should never hurt)");
            }
        }
    }

    return report;
}

}  // namespace spur::audit
