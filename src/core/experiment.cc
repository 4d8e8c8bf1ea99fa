#include "src/core/experiment.h"

#include <utility>

#include "src/common/log.h"
#include "src/core/run_trace.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"

namespace spur::core {

const char*
ToString(WorkloadId id)
{
    switch (id) {
      case WorkloadId::kWorkload1: return "WORKLOAD1";
      case WorkloadId::kSlc: return "SLC";
      case WorkloadId::kDevMachine: return "dev-machine";
      case WorkloadId::kCtxSwitch: return "ctx-switch";
      case WorkloadId::kFlushStorm: return "flush-storm";
      case WorkloadId::kServerChurn: return "server-churn";
      case WorkloadId::kGcSweep: return "gc-sweep";
    }
    return "?";
}

std::optional<WorkloadId>
ParseWorkload(const std::string& name)
{
    for (const WorkloadId id : kAllWorkloads) {
        if (name == ToString(id)) {
            return id;
        }
    }
    return std::nullopt;
}

double
RefCompression(WorkloadId id)
{
    switch (id) {
      case WorkloadId::kWorkload1: return 160.0;
      case WorkloadId::kSlc: return 35.0;
      case WorkloadId::kDevMachine: return 80.0;
      // Scenario-library factors follow the same derivation: an
      // hour-scale session at 1.5 MIPS compressed into the default
      // budget, with gc-sweep nearer SLC's Lisp-session scale.
      case WorkloadId::kCtxSwitch: return 100.0;
      case WorkloadId::kFlushStorm: return 90.0;
      case WorkloadId::kServerChurn: return 110.0;
      case WorkloadId::kGcSweep: return 40.0;
    }
    return 1.0;
}

workload::WorkloadSpec
SpecFor(const RunConfig& config)
{
    switch (config.workload) {
      case WorkloadId::kWorkload1:
        return workload::MakeWorkload1();
      case WorkloadId::kSlc:
        return workload::MakeSlc();
      case WorkloadId::kDevMachine:
        return workload::MakeDevMachine(config.intensity);
      case WorkloadId::kCtxSwitch:
        return workload::MakeCtxSwitchHeavy();
      case WorkloadId::kFlushStorm:
        return workload::MakeFlushStorm();
      case WorkloadId::kServerChurn:
        return workload::MakeServerChurn();
      case WorkloadId::kGcSweep:
        return workload::MakeGcSweep();
    }
    Panic("SpecFor: bad workload id");
}

uint64_t
DefaultRefs(WorkloadId id)
{
    switch (id) {
      case WorkloadId::kWorkload1: return workload::kWorkload1Refs;
      case WorkloadId::kSlc: return workload::kSlcRefs;
      case WorkloadId::kDevMachine: return workload::kDevMachineRefs;
      case WorkloadId::kCtxSwitch: return workload::kCtxSwitchRefs;
      case WorkloadId::kFlushStorm: return workload::kFlushStormRefs;
      case WorkloadId::kServerChurn: return workload::kServerChurnRefs;
      case WorkloadId::kGcSweep: return workload::kGcSweepRefs;
    }
    Panic("DefaultRefs: bad workload id");
}

namespace {

/** Samples the finished system into the standard result tuple. */
RunResult
Harvest(const SpurSystem& system, uint64_t refs_issued)
{
    RunResult result;
    result.events = system.events();
    result.frequencies = EventFrequencies::FromEvents(result.events);
    result.elapsed_seconds = system.timing().ElapsedSeconds();
    result.page_ins = result.events.Get(sim::Event::kPageIn);
    result.page_outs = result.events.Get(sim::Event::kPageOutDirty);
    result.refs_issued = refs_issued;
    for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
        result.bucket_seconds[i] =
            system.timing().Seconds(static_cast<sim::TimeBucket>(i));
    }
    return result;
}

}  // namespace

RunResult
RunOnce(const RunConfig& config)
{
    sim::MachineConfig machine =
        sim::MachineConfig::Prototype(config.memory_mb);
    machine.page_in_us = kScaledPageInUs;
    SpurSystem system(machine, config.dirty, config.ref);

    if (config.trace_replay != nullptr) {
        // Trace-driven: the recorded op stream stands in for the live
        // generator; the machine under test sees the identical call
        // sequence, so counters — and therefore records — match the
        // live run byte for byte.
        const workload::TraceStreamMeta meta = TraceMetaFor(config);
        const workload::TraceStream* stream =
            config.trace_replay->Find(meta.Identity());
        if (stream == nullptr) {
            Fatal("--replay-trace: no stream for '" + meta.Identity() +
                  "' (record it with --record-trace or spur_trace "
                  "record)");
        }
        const workload::ReplayStats stats =
            workload::ReplayStream(*stream, system);
        system.kernel().Audit().RaiseIfFailed(
            "core::RunOnce (end of replay)");
        return Harvest(system, stats.refs_issued);
    }

    // Counters are sampled once the budget is spent, before the driver
    // tears its processes down.  The end-of-run audit comes first: the
    // cell's final state must satisfy every invariant before its
    // numbers enter any table.
    RunResult result;
    const auto at_end = [&system, &result](uint64_t refs_issued) {
        system.kernel().Audit().RaiseIfFailed("core::RunOnce (end of run)");
        result = Harvest(system, refs_issued);
    };

    // Live generation, optionally recording: the first cell to claim
    // this stream identity captures the op stream through a forwarding
    // shim; losers (same workload, different policy/memory) run plain —
    // the generator cannot see the difference.
    if (config.trace_record != nullptr) {
        const std::string identity = TraceMetaFor(config).Identity();
        if (config.trace_record->Claim(identity)) {
            config.trace_record->Commit(
                identity, RecordLiveStream(config, system, at_end).bytes);
            return result;
        }
    }
    workload::WorkloadSpec spec = SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    const uint64_t refs =
        (config.refs != 0) ? config.refs : DefaultRefs(config.workload);
    workload::Driver driver(system, std::move(spec), refs, config.seed,
                            slice_refs);
    driver.Run();
    at_end(driver.refs_issued());
    return result;
}

}  // namespace spur::core
