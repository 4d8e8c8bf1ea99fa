#include "src/serve/request.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/common/framed_log.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/runner/runner.h"
#include "src/runner/thread_pool.h"

namespace spur::serve {

namespace {

bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

bool
EqualsIgnoreCase(const std::string& a, const char* b)
{
    size_t i = 0;
    for (; i < a.size() && b[i] != '\0'; ++i) {
        const char ca = (a[i] >= 'A' && a[i] <= 'Z')
                            ? static_cast<char>(a[i] - 'A' + 'a')
                            : a[i];
        const char cb = (b[i] >= 'A' && b[i] <= 'Z')
                            ? static_cast<char>(b[i] - 'A' + 'a')
                            : b[i];
        if (ca != cb) {
            return false;
        }
    }
    return i == a.size() && b[i] == '\0';
}

// The daemon must reject unknown names with a reason, so these match
// non-fatally against the canonical ToString spellings (the Parse*
// helpers in src/policy/ and the workload scripts call Fatal instead).

std::optional<core::WorkloadId>
WorkloadFromName(const std::string& name)
{
    for (const core::WorkloadId id : core::kAllWorkloads) {
        if (EqualsIgnoreCase(name, core::ToString(id))) {
            return id;
        }
    }
    return std::nullopt;
}

std::optional<policy::DirtyPolicyKind>
DirtyFromName(const std::string& name)
{
    for (const policy::DirtyPolicyKind kind :
         {policy::DirtyPolicyKind::kMin, policy::DirtyPolicyKind::kFault,
          policy::DirtyPolicyKind::kFlush, policy::DirtyPolicyKind::kSpur,
          policy::DirtyPolicyKind::kWrite,
          policy::DirtyPolicyKind::kSpurProt,
          policy::DirtyPolicyKind::kWriteHw}) {
        if (EqualsIgnoreCase(name, policy::ToString(kind))) {
            return kind;
        }
    }
    return std::nullopt;
}

std::optional<policy::RefPolicyKind>
RefFromName(const std::string& name)
{
    for (const policy::RefPolicyKind kind :
         {policy::RefPolicyKind::kMiss, policy::RefPolicyKind::kRef,
          policy::RefPolicyKind::kNoRef}) {
        if (EqualsIgnoreCase(name, policy::ToString(kind))) {
            return kind;
        }
    }
    return std::nullopt;
}

/** Shortest-round-trip double literal (matches stats::JsonWriter). */
std::string
NumberToJson(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

bool
ReadUint(const sweep::JsonValue& object, const char* key, uint64_t* out,
         std::string* error)
{
    const sweep::JsonValue* field = object.Find(key);
    if (field == nullptr) {
        return Fail(error, std::string("missing '") + key + "'");
    }
    const std::optional<uint64_t> value = field->AsUint64();
    if (!value) {
        return Fail(error, std::string("'") + key +
                               "' must be a non-negative integer");
    }
    *out = *value;
    return true;
}

bool
ParseCell(const sweep::JsonValue& value, size_t index,
          core::RunConfig* out, std::string* error)
{
    const std::string where = "cells[" + std::to_string(index) + "]: ";
    if (!value.IsObject()) {
        return Fail(error, where + "cell must be an object");
    }
    core::RunConfig config;
    bool saw_workload = false;
    for (const auto& [key, field] : value.members()) {
        if (key == "workload") {
            if (!field.IsString()) {
                return Fail(error, where + "'workload' must be a string");
            }
            const std::optional<core::WorkloadId> id =
                WorkloadFromName(field.AsString());
            if (!id) {
                return Fail(error, where + "unknown workload '" +
                                       field.AsString() + "'");
            }
            config.workload = *id;
            saw_workload = true;
        } else if (key == "memory_mb") {
            const std::optional<uint64_t> mb = field.AsUint64();
            if (!mb || *mb == 0 || *mb > UINT32_MAX) {
                return Fail(error, where + "'memory_mb' must be a "
                                           "positive integer");
            }
            config.memory_mb = static_cast<uint32_t>(*mb);
        } else if (key == "dirty") {
            if (!field.IsString()) {
                return Fail(error, where + "'dirty' must be a string");
            }
            const std::optional<policy::DirtyPolicyKind> kind =
                DirtyFromName(field.AsString());
            if (!kind) {
                return Fail(error, where + "unknown dirty policy '" +
                                       field.AsString() + "'");
            }
            config.dirty = *kind;
        } else if (key == "ref") {
            if (!field.IsString()) {
                return Fail(error, where + "'ref' must be a string");
            }
            const std::optional<policy::RefPolicyKind> kind =
                RefFromName(field.AsString());
            if (!kind) {
                return Fail(error, where + "unknown ref policy '" +
                                       field.AsString() + "'");
            }
            config.ref = *kind;
        } else if (key == "refs") {
            const std::optional<uint64_t> refs = field.AsUint64();
            if (!refs) {
                return Fail(error, where + "'refs' must be a "
                                           "non-negative integer");
            }
            config.refs = *refs;
        } else if (key == "seed") {
            const std::optional<uint64_t> seed = field.AsUint64();
            if (!seed) {
                return Fail(error, where + "'seed' must be a "
                                           "non-negative integer");
            }
            config.seed = *seed;
        } else if (key == "intensity") {
            const double intensity = field.AsDouble();
            if (!field.IsNumber() || !std::isfinite(intensity) ||
                intensity <= 0.0) {
                return Fail(error, where + "'intensity' must be a "
                                           "positive number");
            }
            config.intensity = intensity;
        } else if (key == "page_in_us") {
            const double page_in = field.AsDouble();
            if (!field.IsNumber() || !std::isfinite(page_in) ||
                page_in < 0.0) {
                return Fail(error, where + "'page_in_us' must be a "
                                           "non-negative number");
            }
            config.page_in_us = page_in;
        } else {
            return Fail(error, where + "unknown key '" + key + "'");
        }
    }
    if (!saw_workload) {
        return Fail(error, where + "missing 'workload'");
    }
    *out = config;
    return true;
}

}  // namespace

uint64_t
TotalCells(const SweepRequest& request)
{
    return static_cast<uint64_t>(request.configs.size()) * request.reps;
}

bool
ParseSweepRequestValue(const sweep::JsonValue& value, SweepRequest* out,
                       std::string* error)
{
    if (!value.IsObject()) {
        return Fail(error, "request must be an object");
    }
    SweepRequest request;
    bool saw_version = false;
    bool saw_name = false;
    bool saw_cells = false;
    for (const auto& [key, field] : value.members()) {
        if (key == "request_version") {
            uint64_t version = 0;
            if (!ReadUint(value, "request_version", &version, error)) {
                return false;
            }
            if (version != static_cast<uint64_t>(kRequestVersion)) {
                return Fail(error,
                            "unknown request_version " +
                                std::to_string(version) + " (expected " +
                                std::to_string(kRequestVersion) + ")");
            }
            saw_version = true;
        } else if (key == "name") {
            if (!field.IsString() || field.AsString().empty()) {
                return Fail(error, "'name' must be a non-empty string");
            }
            request.name = field.AsString();
            saw_name = true;
        } else if (key == "reps") {
            const std::optional<uint64_t> reps = field.AsUint64();
            if (!reps || *reps == 0 || *reps > (1u << 20)) {
                return Fail(error, "'reps' must be an integer in "
                                   "[1, 2^20]");
            }
            request.reps = static_cast<uint32_t>(*reps);
        } else if (key == "shuffle_seed") {
            const std::optional<uint64_t> seed = field.AsUint64();
            if (!seed) {
                return Fail(error, "'shuffle_seed' must be a "
                                   "non-negative integer");
            }
            request.shuffle_seed = *seed;
        } else if (key == "cells") {
            if (!field.IsArray() || field.items().empty()) {
                return Fail(error, "'cells' must be a non-empty array");
            }
            request.configs.reserve(field.items().size());
            for (size_t i = 0; i < field.items().size(); ++i) {
                core::RunConfig config;
                if (!ParseCell(field.items()[i], i, &config, error)) {
                    return false;
                }
                request.configs.push_back(config);
            }
            saw_cells = true;
        } else {
            return Fail(error, "unknown request key '" + key + "'");
        }
    }
    if (!saw_version) {
        return Fail(error, "missing 'request_version'");
    }
    if (!saw_name) {
        return Fail(error, "missing 'name'");
    }
    if (!saw_cells) {
        return Fail(error, "missing 'cells'");
    }
    *out = std::move(request);
    return true;
}

std::optional<SweepRequest>
ParseSweepRequest(const std::string& json, std::string* error)
{
    std::string parse_error;
    const std::optional<sweep::JsonValue> root =
        sweep::ParseJson(json, &parse_error);
    if (!root) {
        Fail(error, parse_error);
        return std::nullopt;
    }
    SweepRequest request;
    if (!ParseSweepRequestValue(*root, &request, error)) {
        return std::nullopt;
    }
    return request;
}

std::optional<SweepRequest>
LoadRequestFile(const std::string& path, std::string* error)
{
    std::string contents;
    const bool read =
        (path == "-")
            ? framed_log::ReadAll(STDIN_FILENO, path, &contents, error)
            : framed_log::ReadFile(path, &contents, error);
    if (!read) {
        return std::nullopt;
    }
    std::string parse_error;
    std::optional<SweepRequest> request =
        ParseSweepRequest(contents, &parse_error);
    if (!request) {
        Fail(error, path + ": " + parse_error);
    }
    return request;
}

std::string
ToJson(const SweepRequest& request)
{
    std::string json = "{\"request_version\": ";
    json += std::to_string(kRequestVersion);
    json += ", \"name\": \"";
    json += stats::JsonWriter::Escape(request.name);
    json += "\", \"reps\": ";
    json += std::to_string(request.reps);
    json += ", \"shuffle_seed\": ";
    json += std::to_string(request.shuffle_seed);
    json += ", \"cells\": [";
    for (size_t i = 0; i < request.configs.size(); ++i) {
        const core::RunConfig& config = request.configs[i];
        if (i > 0) {
            json += ", ";
        }
        json += "{\"workload\": \"";
        json += core::ToString(config.workload);
        json += "\", \"memory_mb\": ";
        json += std::to_string(config.memory_mb);
        json += ", \"dirty\": \"";
        json += policy::ToString(config.dirty);
        json += "\", \"ref\": \"";
        json += policy::ToString(config.ref);
        json += "\", \"refs\": ";
        json += std::to_string(config.refs);
        json += ", \"seed\": ";
        json += std::to_string(config.seed);
        json += ", \"intensity\": ";
        json += NumberToJson(config.intensity);
        json += ", \"page_in_us\": ";
        json += NumberToJson(config.page_in_us);
        json += '}';
    }
    json += "]}";
    return json;
}

stats::RunRecord
MakeRequestRecord(const std::string& name, const core::RunConfig& config,
                  uint32_t rep, const core::RunResult& result)
{
    // Field for field what BenchSession::MakeRecord writes — any drift
    // here breaks the reply-vs-offline byte-identity contract
    // (tests/serve_test.cc compares the two documents directly).
    stats::RunRecord record;
    record.bench = name;
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

ExecuteOutcome
ExecuteSweepRequest(const SweepRequest& request, unsigned jobs,
                    const ExecuteHooks& hooks)
{
    const uint64_t total = TotalCells(request);
    ExecuteOutcome outcome;
    outcome.document.schema_version = stats::kSchemaVersion;
    outcome.document.meta.bench = request.name;
    outcome.document.meta.shard_index = 0;
    outcome.document.meta.shard_count = 1;
    outcome.document.meta.total_cells = total;

    // Execution order: the shuffled order of the randomized design,
    // reordered longest-first when cost hints exist (stable, so
    // unknown-cost cells keep their shuffled relative order behind
    // every measured one — mirrors runner::RunMatrix's scheduling).
    // Scheduling order never feeds into bytes: records are committed in
    // ascending (config, rep) order below, and every cell is seeded
    // from its identity alone.
    std::vector<runner::CellId> order = runner::MatrixOrder(
        request.configs.size(), request.reps, request.shuffle_seed);
    if (hooks.cost) {
        std::vector<double> costs(order.size());
        for (size_t i = 0; i < order.size(); ++i) {
            costs[i] = hooks.cost(request.configs[order[i].config_index],
                                  order[i].rep);
        }
        std::vector<size_t> by_cost(order.size());
        for (size_t i = 0; i < by_cost.size(); ++i) {
            by_cost[i] = i;
        }
        std::stable_sort(by_cost.begin(), by_cost.end(),
                         [&costs](size_t a, size_t b) {
                             return costs[a] > costs[b];
                         });
        std::vector<runner::CellId> sorted;
        sorted.reserve(order.size());
        for (const size_t i : by_cost) {
            sorted.push_back(order[i]);
        }
        order = std::move(sorted);
    }

    // Completion state shared with the workers; the guards are
    // machine-checked (DESIGN.md §13).  Result slots are indexed by
    // record order (config_index * reps + rep); each slot is written by
    // exactly one worker and read by the committer only after its
    // finished flag was observed under the mutex.
    struct State {
        Mutex mutex;
        CondVar changed;
        std::vector<uint8_t> finished SPUR_GUARDED_BY(mutex);
        uint64_t remaining SPUR_GUARDED_BY(mutex) = 0;
        bool cancel SPUR_GUARDED_BY(mutex) = false;
    } state;
    {
        MutexLock lock(state.mutex);
        state.finished.assign(total, 0);
        state.remaining = total;
    }
    std::vector<core::RunResult> slots(total);

    const auto run_cell = [&](runner::CellId id) {
        const size_t slot = id.config_index * request.reps + id.rep;
        bool skip;
        {
            MutexLock lock(state.mutex);
            skip = state.cancel;
        }
        if (!skip) {
            core::RunConfig config = request.configs[id.config_index];
            config.seed = runner::CellSeed(config.seed, id.rep);
            try {
                slots[slot] = core::RunOnce(config);
            } catch (...) {
                // A throwing cell cancels the request (the daemon must
                // outlive any single bad request); the reply stays a
                // truncated-but-recoverable prefix.
                MutexLock lock(state.mutex);
                state.cancel = true;
            }
        }
        // Notify under the lock: once remaining reaches 0 the committer
        // may return and destroy `state`, so this worker must not touch
        // the condition variable after releasing the mutex.
        MutexLock lock(state.mutex);
        state.finished[slot] = 1;
        --state.remaining;
        state.changed.NotifyAll();
    };

    std::optional<runner::ThreadPool> pool;
    std::function<void(std::function<void()>)> submit = hooks.submit;
    if (!submit) {
        unsigned threads = (jobs != 0) ? jobs : runner::DefaultJobs();
        threads = static_cast<unsigned>(
            std::min<uint64_t>(threads, std::max<uint64_t>(total, 1)));
        pool.emplace(threads);
        submit = [&pool](std::function<void()> task) {
            pool->Submit(std::move(task));
        };
    }
    for (const runner::CellId& id : order) {
        submit([&run_cell, id] { run_cell(id); });
    }

    // Commit in ascending (config, rep) order — the byte order of an
    // offline --json/--stream run — polling for cancellation while a
    // cell's predecessors are still in flight.
    bool cancelled = false;
    for (uint64_t k = 0; k < total && !cancelled; ++k) {
        bool ready = false;
        while (!ready && !cancelled) {
            {
                MutexLock lock(state.mutex);
                if (state.finished[k] != 0) {
                    ready = true;
                } else if (state.cancel) {
                    cancelled = true;
                } else {
                    state.changed.WaitFor(state.mutex, 50);
                    if (state.finished[k] != 0) {
                        ready = true;
                    } else if (state.cancel) {
                        cancelled = true;
                    }
                }
            }
            if (!ready && !cancelled && hooks.cancelled &&
                hooks.cancelled()) {
                MutexLock lock(state.mutex);
                state.cancel = true;
                cancelled = true;
            }
        }
        if (cancelled) {
            break;
        }
        const size_t config_index = static_cast<size_t>(k / request.reps);
        const uint32_t rep = static_cast<uint32_t>(k % request.reps);
        core::RunConfig config = request.configs[config_index];
        config.seed = runner::CellSeed(config.seed, rep);
        stats::RunRecord record =
            MakeRequestRecord(request.name, config, rep, slots[k]);
        if (hooks.commit && !hooks.commit(record)) {
            MutexLock lock(state.mutex);
            state.cancel = true;
            cancelled = true;
            break;
        }
        outcome.document.records.push_back(std::move(record));
        ++outcome.committed;
    }

    // Never return while a worker can still touch this frame: cancelled
    // cells drain as cheap no-ops, in-flight ones finish.
    {
        MutexLock lock(state.mutex);
        while (state.remaining != 0) {
            state.changed.Wait(state.mutex);
        }
    }

    outcome.completed = !cancelled && outcome.committed == total;
    outcome.document.meta.ran_cells =
        outcome.completed ? total : outcome.committed;
    return outcome;
}

}  // namespace spur::serve
