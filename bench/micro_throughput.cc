/**
 * @file
 * google-benchmark throughput measurement for the full-system reference
 * path: simulated-references-per-second through SpurSystem::Access()
 * across representative (dirty, ref) policy cells.
 *
 * Unlike micro_cache.cc, which times individual cache primitives, this
 * bench replays a fixed, pre-generated synthetic reference stream so the
 * number reported is the simulator's end-to-end per-reference cost —
 * segment mapping, cache lookup, policy dispatch, event counting, cycle
 * accounting — with reference *generation* excluded from the timed loop.
 * The items_per_second counter reads as simulated refs/sec for that
 * path alone; the end-to-end figures that gate a change come from
 * `spur_bench` (spur_bench/README.md).
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "bench/micro_common.h"

#include "src/common/cpu.h"
#include "src/core/system.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/sim/config.h"
#include "src/workload/process.h"
#include "src/workload/profile.h"

namespace {

using namespace spur;

/// References in the replay buffer.  Large enough that one pass touches
/// the whole synthetic working set (cold misses amortized by the warmup
/// pass), small enough to regenerate quickly per benchmark.
constexpr size_t kBufRefs = 1 << 16;

/// Builds the deterministic replay buffer: the first kBufRefs references
/// a default-profile synthetic process would issue.  Generation reads
/// only the process's private RNG, so the stream is independent of the
/// policy cell under test.
std::vector<MemRef>
MakeRefStream(workload::WorkloadHost& host)
{
    workload::ProcessProfile profile;
    workload::SyntheticProcess proc(host, profile, /*seed=*/42);
    std::vector<MemRef> refs(kBufRefs);
    proc.NextBatch(refs.data(), refs.size());
    return refs;
    // ~SyntheticProcess() destroys the pid; the bench recreates an
    // identical process (same seed, same fresh system) to replay into.
}

/// Replays the stream through the host's per-reference entry point, or
/// with @p scan through AccessBatch().  Issued through the WorkloadHost
/// interface — exactly how the workload driver reaches the system — so
/// interface dispatch is part of the measured cost.
void
RunFullSystem(benchmark::State& state, policy::DirtyPolicyKind dirty,
              policy::RefPolicyKind ref,
              std::optional<core::HitScanKernel> scan = std::nullopt)
{
    if (scan == core::HitScanKernel::kBmi2 && !CpuHasBmi2()) {
        state.SkipWithError("skipped: this CPU has no BMI2 for the BMI2 "
                            "hit scan");
        return;
    }
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::SpurSystem system(config, dirty, ref,
                            scan.value_or(core::HostHitScanKernel()));
    workload::WorkloadHost& host = system;

    std::vector<MemRef> refs = MakeRefStream(host);
    workload::ProcessProfile profile;
    workload::SyntheticProcess proc(host, profile, /*seed=*/42);
    // Rewrite the recorded stream onto the live process's pid so the
    // replay resolves to the same global addresses.
    for (MemRef& r : refs) {
        r.pid = proc.pid();
    }
    // One warmup pass so steady-state (mostly-hit) behaviour dominates.
    for (const MemRef& r : refs) {
        host.Access(r);
    }

    if (scan.has_value()) {
        // The driver's issue path: one AccessBatch() dispatch per quantum.
        for (auto _ : state) {
            host.AccessBatch(refs.data(), refs.size());
            benchmark::ClobberMemory();
        }
    } else {
        for (auto _ : state) {
            for (const MemRef& r : refs) {
                host.Access(r);
            }
            benchmark::ClobberMemory();
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(refs.size()));
}

void
BM_FullSystem_SPUR_MISS(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kSpur,
                  policy::RefPolicyKind::kMiss);
}
BENCHMARK(BM_FullSystem_SPUR_MISS);

void
BM_FullSystem_FAULT_NOREF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kFault,
                  policy::RefPolicyKind::kNoRef);
}
BENCHMARK(BM_FullSystem_FAULT_NOREF);

void
BM_FullSystem_WRITE_REF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kWrite,
                  policy::RefPolicyKind::kRef);
}
BENCHMARK(BM_FullSystem_WRITE_REF);

void
BM_FullSystem_MIN_NOREF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kMin,
                  policy::RefPolicyKind::kNoRef);
}
BENCHMARK(BM_FullSystem_MIN_NOREF);

// Batched-issue variants: the same streams through AccessBatch(), the
// entry point the workload driver uses, once per hit scan kernel
// (`/baseline`, `/bmi2`).  These are the headline simulated-refs/sec
// numbers.

void
BM_FullSystemBatch_SPUR_MISS(benchmark::State& state,
                             core::HitScanKernel scan)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kSpur,
                  policy::RefPolicyKind::kMiss, scan);
}

void
BM_FullSystemBatch_FAULT_NOREF(benchmark::State& state,
                               core::HitScanKernel scan)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kFault,
                  policy::RefPolicyKind::kNoRef, scan);
}

void
BM_FullSystemBatch_WRITE_REF(benchmark::State& state,
                             core::HitScanKernel scan)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kWrite,
                  policy::RefPolicyKind::kRef, scan);
}

void
BM_FullSystemBatch_MIN_NOREF(benchmark::State& state,
                             core::HitScanKernel scan)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kMin,
                  policy::RefPolicyKind::kNoRef, scan);
}

BENCHMARK_CAPTURE(BM_FullSystemBatch_SPUR_MISS, baseline,
                  core::HitScanKernel::kBaseline);
BENCHMARK_CAPTURE(BM_FullSystemBatch_SPUR_MISS, bmi2,
                  core::HitScanKernel::kBmi2);
BENCHMARK_CAPTURE(BM_FullSystemBatch_FAULT_NOREF, baseline,
                  core::HitScanKernel::kBaseline);
BENCHMARK_CAPTURE(BM_FullSystemBatch_FAULT_NOREF, bmi2,
                  core::HitScanKernel::kBmi2);
BENCHMARK_CAPTURE(BM_FullSystemBatch_WRITE_REF, baseline,
                  core::HitScanKernel::kBaseline);
BENCHMARK_CAPTURE(BM_FullSystemBatch_WRITE_REF, bmi2,
                  core::HitScanKernel::kBmi2);
BENCHMARK_CAPTURE(BM_FullSystemBatch_MIN_NOREF, baseline,
                  core::HitScanKernel::kBaseline);
BENCHMARK_CAPTURE(BM_FullSystemBatch_MIN_NOREF, bmi2,
                  core::HitScanKernel::kBmi2);

}  // namespace

SPUR_MICRO_BENCHMARK_MAIN()
