/**
 * @file
 * The experiment framework: one place that knows how to run a workload on
 * a configured machine under chosen policies and hand back everything the
 * paper's tables need (event counts, page-ins, elapsed time).
 *
 * Scaling note (documented in DESIGN.md): the prototype executed billions
 * of references per workload; our runs use tens of millions with the same
 * memory sizes, so blocking page-in latency is scaled down by a similar
 * factor (kScaledPageInUs) to preserve the paper's CPU-time-to-paging-time
 * balance.  All comparisons are within this single scaled machine.
 */
#ifndef SPUR_CORE_EXPERIMENT_H_
#define SPUR_CORE_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/overhead_model.h"
#include "src/core/system.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/sim/timing.h"
#include "src/workload/driver.h"

namespace spur::workload {
class TraceLibrary;
}  // namespace spur::workload

namespace spur::core {

/** Which of the paper's two workloads (plus extras) to run. */
enum class WorkloadId : uint8_t {
    kWorkload1,
    kSlc,
    kDevMachine,
    // The scenario library (DESIGN.md §19): VAC-stress scripts beyond
    // the paper's own workloads.
    kCtxSwitch,    ///< Rapid process interleave (context-flush stress).
    kFlushStorm,   ///< Short-lived dirty writers (segment/page flushes).
    kServerChurn,  ///< Multi-tenant short-lived address spaces.
    kGcSweep,      ///< Lisp-style linear heap walks over a zfod heap.
};

/** Returns the paper's name for a workload id. */
const char* ToString(WorkloadId id);

/** The workload whose ToString() spelling is @p name, if any. */
std::optional<WorkloadId> ParseWorkload(const std::string& name);

/** Every workload id, in declaration order (tools and servers iterate
 *  this instead of hand-listing enumerators). */
inline constexpr WorkloadId kAllWorkloads[] = {
    WorkloadId::kWorkload1,   WorkloadId::kSlc,
    WorkloadId::kDevMachine,  WorkloadId::kCtxSwitch,
    WorkloadId::kFlushStorm,  WorkloadId::kServerChurn,
    WorkloadId::kGcSweep,
};

/** The scenario library: the workloads beyond the paper's own (benches
 *  append these rows under --scenarios; see bench/run_all.sh). */
inline constexpr WorkloadId kScenarioLibrary[] = {
    WorkloadId::kCtxSwitch,
    WorkloadId::kFlushStorm,
    WorkloadId::kServerChurn,
    WorkloadId::kGcSweep,
};

class TraceRecordSession;

/**
 * The loaded --replay-trace library (src/workload/trace.h).  Load() once
 * before the sweep; afterwards it is immutable, so parallel cells call
 * Find() freely.  A cell whose identity is missing from the library is
 * a Fatal user error in RunOnce (a partial trace silently degrading to
 * live generation would defeat the byte-identity contract).
 */
using TraceReplaySource = workload::TraceLibrary;

/** Everything needed to execute one run. */
struct RunConfig {
    WorkloadId workload = WorkloadId::kWorkload1;
    uint32_t memory_mb = 8;
    policy::DirtyPolicyKind dirty = policy::DirtyPolicyKind::kSpur;
    policy::RefPolicyKind ref = policy::RefPolicyKind::kMiss;
    uint64_t refs = 0;       ///< 0 = the workload's default budget.
    uint64_t seed = 1;
    double intensity = 1.0;  ///< Dev-machine workloads only.
    /// Injected by BenchSession --record-trace: the first cell to claim
    /// this run's stream identity records its op stream (src/core/
    /// run_trace.h).  Not part of the cell identity; never serialized.
    TraceRecordSession* trace_record = nullptr;
    /// Injected by BenchSession --replay-trace: the run is driven from
    /// the recorded stream instead of the live generator.  Missing
    /// identities are a Fatal user error.
    const TraceReplaySource* trace_replay = nullptr;
};

/** Page-in latency used for scaled runs (see file comment). */
inline constexpr double kScaledPageInUs = 800.0;

/**
 * Reference-compression factor: how many prototype references one
 * simulated reference stands for.
 *
 * The workload scripts compress the prototype sessions (elapsed seconds
 * from Tables 3.3/4.1 at 1.5 MIPS, i.e. 0.5-4.5 billion references) into
 * the default budgets of 20-24 million simulated references while
 * keeping the *page-level* activity (dirty faults, page-ins) at
 * prototype scale.  Quantities that accrue per reference — the
 * N_w-hit / N_w-miss block-modification counts — are therefore deflated
 * by roughly this factor relative to quantities that accrue per page.
 * Benches that combine the two kinds (Table 3.3's w-hit/w-miss columns,
 * Table 3.4's WRITE-policy t_dc term) multiply the per-reference counts
 * back up by this factor and say so in their output.
 *
 * Derivation: paper elapsed time x 1.5 MIPS / default simulated refs;
 * WORKLOAD1 ~2535-3016 s -> ~3.8-4.5 G refs / 24 M ~ 160;
 * SLC ~341-948 s -> ~0.5-1.4 G refs / 20 M ~ 35.
 */
double RefCompression(WorkloadId id);

/** The distilled outcome of one run. */
struct RunResult {
    sim::EventCounts events;       ///< Full ground-truth counters.
    EventFrequencies frequencies;  ///< The Table 3.3 tuple.
    double elapsed_seconds = 0.0;
    uint64_t page_ins = 0;
    uint64_t page_outs = 0;
    uint64_t refs_issued = 0;
    /// Per-bucket seconds, indexed by sim::TimeBucket.
    std::array<double, sim::kNumTimeBuckets> bucket_seconds{};
};

/** The workload script a config runs (name, jobs, scheduling slice). */
workload::WorkloadSpec SpecFor(const RunConfig& config);

/** The default reference budget of a workload. */
uint64_t DefaultRefs(WorkloadId id);

/** Executes one run to completion, then audits the machine
 *  (Kernel::Audit); a violated invariant aborts the run. */
RunResult RunOnce(const RunConfig& config);

// Matrix execution (randomized order, repetitions, parallel cells)
// lives one layer up in runner::RunMatrix (src/runner/runner.h): the
// experiment layer defines what a run *is*, the runner decides how many
// execute at once.  Keeping the orchestration out of src/core keeps the
// subsystem graph acyclic (LAYERS.toml).

}  // namespace spur::core

#endif  // SPUR_CORE_EXPERIMENT_H_
