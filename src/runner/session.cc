#include "src/runner/session.h"

#include <utility>

#include "src/common/log.h"
#include "src/common/mutex.h"
#include "src/runner/runner.h"

namespace spur::runner {

std::vector<Flag>
SessionFlags(std::vector<Flag> extra)
{
    std::vector<Flag> flags = {
        {"jobs", FlagKind::kUnsigned, 0, UINT32_MAX},
        {"json", FlagKind::kText},
        {"record-trace", FlagKind::kText},
        {"replay-trace", FlagKind::kText},
        {"refs", FlagKind::kUnsigned, 0, UINT64_MAX / 1'000'000},
        {"reps", FlagKind::kUnsigned, 1, UINT32_MAX},
        {"seed", FlagKind::kUnsigned},
    };
    flags.insert(flags.end(), extra.begin(), extra.end());
    return flags;
}

Flag
WorkloadFlag()
{
    Flag flag{"workload", FlagKind::kText};
    for (const core::WorkloadId id : core::kAllWorkloads) {
        flag.choices.emplace_back(core::ToString(id));
    }
    return flag;
}

Flag
DirtyPolicyFlag(std::string name)
{
    Flag flag{std::move(name), FlagKind::kText};
    for (const policy::DirtyPolicyKind kind : policy::kAllDirtyPolicies) {
        flag.choices.emplace_back(policy::ToString(kind));
    }
    return flag;
}

Flag
RefPolicyFlag(std::string name)
{
    Flag flag{std::move(name), FlagKind::kText};
    for (const policy::RefPolicyKind kind : policy::kAllRefPolicies) {
        flag.choices.emplace_back(policy::ToString(kind));
    }
    return flag;
}

BenchSession::BenchSession(std::string bench_name, int argc, char** argv,
                           std::vector<Flag> extra)
  : bench_(std::move(bench_name)),
    args_(argc, argv, SessionFlags(std::move(extra)))
{
    const uint64_t requested = args_.GetUnsigned("jobs", 0);
    jobs_ = (requested > 0) ? static_cast<unsigned>(requested)
                            : HardwareJobs();

    const std::string record_trace = args_.GetString("record-trace");
    const std::string replay_trace = args_.GetString("replay-trace");
    if (!record_trace.empty() && !replay_trace.empty()) {
        Fatal("--record-trace and --replay-trace are mutually exclusive "
              "(replaying records nothing new)");
    }
    if (!record_trace.empty()) {
        trace_record_ = std::make_unique<core::TraceRecordSession>();
        std::string error;
        if (!trace_record_->Open(record_trace, &error)) {
            Fatal("--record-trace: " + error);
        }
    }
    if (!replay_trace.empty()) {
        trace_replay_ = std::make_unique<core::TraceReplaySource>();
        std::string error;
        if (!trace_replay_->Load(replay_trace, &error)) {
            Fatal("--replay-trace: " + error);
        }
    }
}

core::WorkloadId
BenchSession::Workload(core::WorkloadId fallback) const
{
    return *core::ParseWorkload(
        args_.GetString("workload", core::ToString(fallback)));
}

std::vector<core::RunConfig>
BenchSession::WithTraceHooks(
    const std::vector<core::RunConfig>& configs) const
{
    std::vector<core::RunConfig> hooked = configs;
    if (trace_record_ != nullptr || trace_replay_ != nullptr) {
        for (core::RunConfig& config : hooked) {
            config.trace_record = trace_record_.get();
            config.trace_replay = trace_replay_.get();
        }
    }
    return hooked;
}

std::vector<std::vector<core::RunResult>>
BenchSession::RunMatrix(const std::vector<core::RunConfig>& configs,
                        uint32_t reps)
{
    if (trace_record_ != nullptr) {
        // Place each stream at its first cell in the order cells start.
        for (const CellId id : MatrixOrder(configs.size(), reps)) {
            core::RunConfig cell = configs[id.config_index];
            cell.seed = CellSeed(cell.seed, id.rep);
            trace_record_->Reserve(core::TraceMetaFor(cell).Identity());
        }
    }
    auto results = runner::RunMatrix(WithTraceHooks(configs), reps, jobs_);
    for (size_t i = 0; i < configs.size(); ++i) {
        core::RunConfig cell = configs[i];
        for (uint32_t rep = 0; rep < reps; ++rep) {
            cell.seed = CellSeed(configs[i].seed, rep);
            Record(cell, rep, results[i][rep]);
        }
    }
    total_cells_ += static_cast<uint64_t>(configs.size()) * reps;
    return results;
}

std::vector<core::RunResult>
BenchSession::RunAll(const std::vector<core::RunConfig>& configs)
{
    if (trace_record_ != nullptr) {
        for (const core::RunConfig& config : configs) {
            trace_record_->Reserve(core::TraceMetaFor(config).Identity());
        }
    }
    auto results = runner::RunAll(WithTraceHooks(configs), jobs_);
    for (size_t i = 0; i < configs.size(); ++i) {
        Record(configs[i], 0, results[i]);
    }
    total_cells_ += configs.size();
    return results;
}

stats::RunRecord
BenchSession::MakeRecord(const core::RunConfig& config, uint32_t rep,
                         const core::RunResult& result) const
{
    stats::RunRecord record;
    record.bench = bench_;
    record.workload = core::ToString(config.workload);
    record.dirty_policy = ToString(config.dirty);
    record.ref_policy = ToString(config.ref);
    record.memory_mb = config.memory_mb;
    record.rep = rep;
    record.seed = config.seed;
    record.refs_issued = result.refs_issued;
    record.page_ins = result.page_ins;
    record.page_outs = result.page_outs;
    record.elapsed_seconds = result.elapsed_seconds;
    record.AddMetric("n_ds", static_cast<double>(result.frequencies.n_ds));
    record.AddMetric("n_zfod",
                     static_cast<double>(result.frequencies.n_zfod));
    record.AddMetric("n_ef", static_cast<double>(result.frequencies.n_ef));
    record.AddMetric("n_w_hit",
                     static_cast<double>(result.frequencies.n_w_hit));
    record.AddMetric("n_w_miss",
                     static_cast<double>(result.frequencies.n_w_miss));
    return record;
}

void
BenchSession::Record(const core::RunConfig& config, uint32_t rep,
                     const core::RunResult& result)
{
    Record(MakeRecord(config, rep, result));
}

void
BenchSession::Record(stats::RunRecord record)
{
    if (record.bench.empty()) {
        record.bench = bench_;
    }
    MutexLock lock(mutex_);
    records_.push_back(std::move(record));
}

std::vector<stats::RunRecord>
BenchSession::records() const
{
    MutexLock lock(mutex_);
    return records_;
}

int
BenchSession::Finish()
{
    stats::DocumentMeta meta;
    meta.bench = bench_;
    meta.total_cells = total_cells_;
    int exit_code = 0;
    const std::string json_path = args_.GetString("json");
    if (!json_path.empty()) {
        const std::vector<stats::RunRecord> records = this->records();
        if (!stats::JsonWriter::WriteFile(json_path, meta, records)) {
            Warn("BenchSession: failed to write " + json_path);
            exit_code = 1;
        }
    }
    if (trace_record_ != nullptr) {
        std::string error;
        if (!trace_record_->Finish(&error)) {
            Warn("--record-trace: " + error);
            exit_code = 1;
        }
    }
    if (total_cells_ == 0 &&
        (trace_record_ != nullptr || trace_replay_ != nullptr)) {
        // The bench's own loops ran live and recorded nothing: say so
        // rather than pass a live run off as traced.
        Warn(std::string(trace_record_ != nullptr ? "--record-trace"
                                                  : "--replay-trace") +
             ": " + bench_ + " ran no session cell, so the flag had "
             "no effect");
        exit_code = 1;
    }
    return exit_code;
}

}  // namespace spur::runner
