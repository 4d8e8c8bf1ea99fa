#include "src/runner/session.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/runner/thread_pool.h"
#include "src/sweep/merge.h"

namespace spur::runner {

BenchSession::BenchSession(std::string bench_name, const Args& args)
  : bench_(std::move(bench_name)),
    json_path_(args.GetString("json"))
{
    const int64_t requested = args.GetInt("jobs", 0);
    jobs_ = (requested > 0) ? static_cast<unsigned>(requested)
                            : HardwareJobs();
    // Library-level callers (runner::RunMatrix) inherit the flag too.
    SetDefaultJobs(jobs_);

    const std::string shard_text = args.GetString("shard");
    if (!shard_text.empty()) {
        const std::optional<sweep::ShardSpec> shard =
            sweep::ShardSpec::Parse(shard_text);
        if (!shard) {
            Fatal("--shard must be K/N with 0 <= K < N, got '" +
                  shard_text + "'");
        }
        shard_ = *shard;
    }

    const std::string resume_path = args.GetString("resume");
    if (!resume_path.empty()) {
        std::string error;
        const std::optional<sweep::SweepDocument> document =
            sweep::LoadSweepFile(resume_path, &error);
        if (!document) {
            Fatal("--resume: " + error);
        }
        // A recovered stream that died before any record was framed is
        // an empty document with a blank header; resuming from it is a
        // no-op, not an error.
        if (!document->records.empty()) {
            if (document->meta.bench != bench_) {
                Fatal("--resume: " + resume_path +
                      " was produced by bench '" + document->meta.bench +
                      "', this is '" + bench_ + "'");
            }
            if (document->meta.shard_index != shard_.index ||
                document->meta.shard_count != shard_.count) {
                Fatal("--resume: " + resume_path + " is shard " +
                      std::to_string(document->meta.shard_index) + "/" +
                      std::to_string(document->meta.shard_count) +
                      ", this run is " + std::to_string(shard_.index) +
                      "/" + std::to_string(shard_.count) +
                      " (resume with the original shard flags)");
            }
            for (const stats::RunRecord& record : document->records) {
                resume_.emplace(sweep::RecordIdentity(record), record);
            }
        }
    }

    const std::string stream_path = args.GetString("stream");
    if (!stream_path.empty()) {
        std::string error;
        MutexLock lock(mutex_);
        if (!stream_.Open(stream_path, bench_, shard_.index, shard_.count,
                          &error)) {
            Fatal("--stream: " + error);
        }
    }

    const std::string record_trace = args.GetString("record-trace");
    const std::string replay_trace = args.GetString("replay-trace");
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
                        uint32_t reps, uint64_t shuffle_seed)
{
    MatrixOptions options;
    options.shuffle_seed = shuffle_seed;
    options.jobs = jobs_;
    options.shard_index = shard_.index;
    options.shard_count = shard_.count;
    options.shard_offset = total_cells_;
    if (!resume_.empty()) {
        options.skip = [this](const core::RunConfig& config, uint32_t rep) {
            return resume_.find(CellIdentity(config, rep)) != resume_.end();
        };
    }

    // The owned cells in record order.  Ownership is decided on the
    // shuffled ordinal (runner::RunMatrix shards the MatrixOrder list),
    // but records are committed in ascending (config, rep) order so the
    // stream prefix — and the final JSON document — is byte-stable
    // across job counts, completion order, and resume splits.
    std::vector<std::pair<size_t, uint32_t>> owned;
    {
        const std::vector<CellId> order =
            MatrixOrder(configs.size(), reps, shuffle_seed);
        for (size_t ordinal = 0; ordinal < order.size(); ++ordinal) {
            if (shard_.Contains(options.shard_offset + ordinal)) {
                owned.emplace_back(order[ordinal].config_index,
                                   order[ordinal].rep);
            }
        }
        std::sort(owned.begin(), owned.end());
    }

    // Each completed (or resumed) cell is committed — streamed and
    // recorded — the moment every owned cell before it in record order
    // is done, so a killed run's stream holds a durable in-order prefix
    // instead of nothing until the matrix ends.  The progress callback
    // always fires on this thread, so `done`/`next` need no locking.
    std::map<std::pair<size_t, uint32_t>, Cell> done;
    size_t next = 0;
    auto results = runner::RunMatrix(
        WithTraceHooks(configs), reps, options,
        [&](const Cell& cell) {
            done.emplace(std::make_pair(cell.config_index, cell.rep),
                         cell);
            while (next < owned.size()) {
                const auto ready = done.find(owned[next]);
                if (ready == done.end()) {
                    break;
                }
                CommitCell(ready->second);
                done.erase(ready);
                ++next;
            }
        });
    if (next != owned.size()) {
        // Only reachable if the shard/order math above ever diverges
        // from runner::RunMatrix's; fail loudly over dropping records.
        Fatal("BenchSession: committed " + std::to_string(next) +
              " of " + std::to_string(owned.size()) + " owned cells");
    }
    total_cells_ += static_cast<uint64_t>(configs.size()) * reps;
    ran_cells_ += owned.size();
    return results;
}

std::vector<core::RunResult>
BenchSession::RunAll(const std::vector<core::RunConfig>& configs)
{
    std::vector<size_t> mine;
    mine.reserve(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        if (shard_.Contains(total_cells_ + i)) {
            mine.push_back(i);
        }
    }
    // Split this shard's slice into cells --resume satisfies and cells
    // to execute (RunAll uses seeds verbatim, rep 0).
    std::vector<size_t> run;
    run.reserve(mine.size());
    for (const size_t i : mine) {
        if (resume_.empty() ||
            resume_.find(CellIdentity(configs[i], 0)) == resume_.end()) {
            run.push_back(i);
        }
    }
    // slot_of[k]: position in `run` of mine[k], or npos for a cell the
    // resume document already satisfies.
    constexpr size_t npos = ~size_t{0};
    std::vector<size_t> slot_of(mine.size(), npos);
    for (size_t k = 0, slot = 0; k < mine.size(); ++k) {
        if (slot < run.size() && run[slot] == mine[k]) {
            slot_of[k] = slot++;
        }
    }

    std::vector<core::RunResult> results(configs.size());

    // In-order streaming committer: a cell is committed the moment every
    // owned cell before it in input order is finished (or resumed), so a
    // killed run's stream holds a durable prefix.  Workers race to drain,
    // hence the machine-checked guard (DESIGN.md §13); commit order stays
    // the input order, so the bytes match a sequential run exactly.
    struct Drain {
        Mutex mutex;
        std::vector<bool> finished SPUR_GUARDED_BY(mutex);
        size_t next SPUR_GUARDED_BY(mutex) = 0;
    } drain;
    drain.finished.resize(run.size());
    const auto commit_ready = [&] {
        MutexLock lock(drain.mutex);
        while (drain.next < mine.size()) {
            const size_t k = drain.next;
            if (slot_of[k] != npos && !drain.finished[slot_of[k]]) {
                break;
            }
            ++drain.next;
            const size_t i = mine[k];
            if (slot_of[k] == npos) {
                Commit(resume_.find(CellIdentity(configs[i], 0))->second);
                ++resumed_cells_;
                continue;
            }
            Commit(MakeRecord(configs[i], 0, results[i]));
        }
    };
    commit_ready();  // Leading resumed cells stream before execution.
    const std::vector<core::RunConfig> hooked = WithTraceHooks(configs);
    ParallelFor(run.size(), jobs_, [&](size_t slot) {
        const size_t i = run[slot];
        results[i] = core::RunOnce(hooked[i]);
        {
            MutexLock lock(drain.mutex);
            drain.finished[slot] = true;
        }
        commit_ready();
    });
    total_cells_ += configs.size();
    ran_cells_ += mine.size();
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

std::string
BenchSession::CellIdentity(const core::RunConfig& config,
                           uint32_t rep) const
{
    stats::RunRecord record;
    record.bench = bench_;
    record.workload = core::ToString(config.workload);
    record.dirty_policy = ToString(config.dirty);
    record.ref_policy = ToString(config.ref);
    record.memory_mb = config.memory_mb;
    record.rep = rep;
    record.seed = config.seed;
    return sweep::RecordIdentity(record);
}

void
BenchSession::Record(const core::RunConfig& config, uint32_t rep,
                     const core::RunResult& result)
{
    Commit(MakeRecord(config, rep, result));
}

void
BenchSession::Record(stats::RunRecord record)
{
    if (record.bench.empty()) {
        record.bench = bench_;
    }
    Commit(std::move(record));
}

void
BenchSession::CommitCell(const Cell& cell)
{
    if (!cell.executed) {
        // The skip hook only fires on resume-map hits, so the lookup
        // cannot miss.
        Commit(resume_.find(CellIdentity(cell.config, cell.rep))->second);
        ++resumed_cells_;
        return;
    }
    Commit(MakeRecord(cell.config, cell.rep, cell.result));
}

void
BenchSession::Commit(stats::RunRecord record)
{
    MutexLock lock(mutex_);
    if (stream_.is_open()) {
        std::string error;
        if (!stream_.Append(record, &error)) {
            Warn("--stream: " + error);
            stream_failed_ = true;
        }
    }
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
    meta.shard_index = shard_.index;
    meta.shard_count = shard_.count;
    meta.total_cells = total_cells_;
    meta.ran_cells = ran_cells_;
    int exit_code = 0;
    {
        MutexLock lock(mutex_);
        if (stream_failed_) {
            exit_code = 1;
        }
        if (stream_.is_open()) {
            std::string error;
            if (!stream_.Finish(meta, &error)) {
                Warn("--stream: " + error);
                exit_code = 1;
            }
        }
    }
    if (!json_path_.empty()) {
        const std::vector<stats::RunRecord> records = this->records();
        if (!stats::JsonWriter::WriteFile(json_path_, meta, records)) {
            Warn("BenchSession: failed to write " + json_path_);
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
    return exit_code;
}

}  // namespace spur::runner
