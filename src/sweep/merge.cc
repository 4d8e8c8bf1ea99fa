#include "src/sweep/merge.h"

#include <unistd.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <utility>

#include "src/common/framed_log.h"
#include "src/sweep/json.h"

namespace spur::sweep {

namespace {

/** Separator for identity keys; never appears in our names. */
constexpr char kSep = '\x1f';

bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

/** Reads a non-negative integer field into @p out. */
template <typename T>
bool
ReadUint(const JsonValue& value, const char* name, T* out,
         std::string* error)
{
    const std::optional<uint64_t> parsed = value.AsUint64();
    if (!parsed || *parsed > std::numeric_limits<T>::max()) {
        return Fail(error, std::string("field '") + name +
                               "' must be a non-negative integer");
    }
    *out = static_cast<T>(*parsed);
    return true;
}

bool
ParseTelemetry(const JsonValue& value, stats::CellTelemetry* out,
               std::string* error)
{
    if (!value.IsObject()) {
        return Fail(error, "'telemetry' must be an object");
    }
    bool saw_wall = false;
    bool saw_rss = false;
    bool saw_worker = false;
    for (const auto& [name, field] : value.members()) {
        if (name == "wall_seconds") {
            if (!field.IsNumber() && !field.IsNull()) {
                return Fail(error, "'wall_seconds' must be a number");
            }
            out->wall_seconds = field.AsDouble();
            saw_wall = true;
        } else if (name == "peak_rss_bytes") {
            if (!ReadUint(field, "peak_rss_bytes", &out->peak_rss_bytes,
                          error)) {
                return false;
            }
            saw_rss = true;
        } else if (name == "worker") {
            if (!ReadUint(field, "worker", &out->worker, error)) {
                return false;
            }
            saw_worker = true;
        } else {
            return Fail(error, "unknown telemetry field '" + name + "'");
        }
    }
    if (!saw_wall || !saw_rss || !saw_worker) {
        return Fail(error, "telemetry is missing a required field");
    }
    return true;
}

}  // namespace

bool
ParseRunRecord(const JsonValue& value, stats::RunRecord* out,
               std::string* error)
{
    if (!value.IsObject()) {
        return Fail(error, "record must be an object");
    }
    std::set<std::string> seen;
    for (const auto& [name, field] : value.members()) {
        if (!seen.insert(name).second) {
            return Fail(error, "duplicate record field '" + name + "'");
        }
        if (name == "bench" || name == "workload" ||
            name == "dirty_policy" || name == "ref_policy") {
            if (!field.IsString()) {
                return Fail(error,
                            "field '" + name + "' must be a string");
            }
            if (name == "bench") {
                out->bench = field.AsString();
            } else if (name == "workload") {
                out->workload = field.AsString();
            } else if (name == "dirty_policy") {
                out->dirty_policy = field.AsString();
            } else {
                out->ref_policy = field.AsString();
            }
        } else if (name == "memory_mb") {
            if (!ReadUint(field, "memory_mb", &out->memory_mb, error)) {
                return false;
            }
        } else if (name == "rep") {
            if (!ReadUint(field, "rep", &out->rep, error)) {
                return false;
            }
        } else if (name == "seed") {
            if (!ReadUint(field, "seed", &out->seed, error)) {
                return false;
            }
        } else if (name == "refs_issued") {
            if (!ReadUint(field, "refs_issued", &out->refs_issued, error)) {
                return false;
            }
        } else if (name == "page_ins") {
            if (!ReadUint(field, "page_ins", &out->page_ins, error)) {
                return false;
            }
        } else if (name == "page_outs") {
            if (!ReadUint(field, "page_outs", &out->page_outs, error)) {
                return false;
            }
        } else if (name == "elapsed_seconds") {
            if (!field.IsNumber() && !field.IsNull()) {
                return Fail(error, "'elapsed_seconds' must be a number");
            }
            out->elapsed_seconds = field.AsDouble();
        } else if (name == "metrics") {
            if (!field.IsObject()) {
                return Fail(error, "'metrics' must be an object");
            }
            for (const auto& [metric, metric_value] : field.members()) {
                if (!metric_value.IsNumber() && !metric_value.IsNull()) {
                    return Fail(error, "metric '" + metric +
                                           "' must be a number");
                }
                out->AddMetric(metric, metric_value.AsDouble());
            }
        } else if (name == "telemetry") {
            stats::CellTelemetry telemetry;
            if (!ParseTelemetry(field, &telemetry, error)) {
                return false;
            }
            out->telemetry = telemetry;
        } else {
            return Fail(error, "unknown record field '" + name + "'");
        }
    }
    for (const char* required :
         {"bench", "workload", "dirty_policy", "ref_policy", "memory_mb",
          "rep", "seed", "refs_issued", "page_ins", "page_outs",
          "elapsed_seconds", "metrics"}) {
        if (seen.find(required) == seen.end()) {
            return Fail(error, std::string("record is missing field '") +
                                   required + "'");
        }
    }
    return true;
}

bool
ParseShardHeader(const JsonValue& value, stats::DocumentMeta* meta,
                 std::string* error)
{
    if (!value.IsObject()) {
        return Fail(error, "'shard' must be an object");
    }
    std::set<std::string> seen;
    for (const auto& [name, field] : value.members()) {
        seen.insert(name);
        if (name == "index") {
            if (!ReadUint(field, "index", &meta->shard_index, error)) {
                return false;
            }
        } else if (name == "count") {
            if (!ReadUint(field, "count", &meta->shard_count, error)) {
                return false;
            }
        } else if (name == "total_cells") {
            if (!ReadUint(field, "total_cells", &meta->total_cells,
                          error)) {
                return false;
            }
        } else if (name == "ran_cells") {
            if (!ReadUint(field, "ran_cells", &meta->ran_cells, error)) {
                return false;
            }
        } else {
            return Fail(error, "unknown shard field '" + name + "'");
        }
    }
    for (const char* required :
         {"index", "count", "total_cells", "ran_cells"}) {
        if (seen.find(required) == seen.end()) {
            return Fail(error, std::string("shard header is missing '") +
                                   required + "'");
        }
    }
    if (meta->shard_count == 0 || meta->shard_index >= meta->shard_count) {
        return Fail(error, "shard index " +
                               std::to_string(meta->shard_index) +
                               " out of range for count " +
                               std::to_string(meta->shard_count));
    }
    if (meta->ran_cells > meta->total_cells) {
        return Fail(error, "shard claims more ran_cells than total_cells");
    }
    return true;
}

bool
ValidateShardAccounting(const SweepDocument& document, std::string* error)
{
    const stats::DocumentMeta& meta = document.meta;
    if (meta.total_cells == 0) {
        return true;  // Bespoke-only sessions track no matrix cells.
    }
    // Cell ordinal o belongs to shard K of N iff o % N == K, so the
    // slice of a total_cells-cell session is:
    const uint64_t slice =
        (meta.total_cells > meta.shard_index)
            ? (meta.total_cells - meta.shard_index - 1) / meta.shard_count +
                  1
            : 0;
    if (meta.ran_cells != slice) {
        return Fail(error,
                    "shard " + std::to_string(meta.shard_index) + "/" +
                        std::to_string(meta.shard_count) + " of " +
                        std::to_string(meta.total_cells) +
                        " cells must have run " + std::to_string(slice) +
                        ", claims " + std::to_string(meta.ran_cells) +
                        (meta.ran_cells < slice
                             ? " (crashed shard? recover + --resume it)"
                             : " (duplicated cells?)"));
    }
    return true;
}

std::optional<SweepDocument>
ParseSweepDocument(const std::string& json, std::string* error)
{
    const std::optional<JsonValue> root = ParseJson(json, error);
    if (!root) {
        return std::nullopt;
    }
    if (!root->IsObject()) {
        Fail(error, "document must be a JSON object");
        return std::nullopt;
    }
    SweepDocument document;
    std::set<std::string> seen;
    for (const auto& [name, field] : root->members()) {
        seen.insert(name);
        if (name == "schema_version") {
            const std::optional<uint64_t> version = field.AsUint64();
            if (!version) {
                Fail(error, "'schema_version' must be an integer");
                return std::nullopt;
            }
            if (*version != static_cast<uint64_t>(stats::kSchemaVersion)) {
                Fail(error, "unknown schema_version " +
                                std::to_string(*version) + " (expected " +
                                std::to_string(stats::kSchemaVersion) +
                                ")");
                return std::nullopt;
            }
            document.schema_version = static_cast<int>(*version);
        } else if (name == "bench") {
            if (!field.IsString()) {
                Fail(error, "'bench' must be a string");
                return std::nullopt;
            }
            document.meta.bench = field.AsString();
        } else if (name == "shard") {
            if (!ParseShardHeader(field, &document.meta, error)) {
                return std::nullopt;
            }
        } else if (name == "records") {
            if (!field.IsArray()) {
                Fail(error, "'records' must be an array");
                return std::nullopt;
            }
            document.records.reserve(field.items().size());
            for (size_t i = 0; i < field.items().size(); ++i) {
                stats::RunRecord record;
                std::string record_error;
                if (!ParseRunRecord(field.items()[i], &record,
                                    &record_error)) {
                    Fail(error, "record " + std::to_string(i) + ": " +
                                    record_error);
                    return std::nullopt;
                }
                document.records.push_back(std::move(record));
            }
        } else {
            Fail(error, "unknown document field '" + name + "'");
            return std::nullopt;
        }
    }
    for (const char* required :
         {"schema_version", "bench", "shard", "records"}) {
        if (seen.find(required) == seen.end()) {
            Fail(error, std::string("document is missing '") + required +
                            "' (pre-versioning file?)");
            return std::nullopt;
        }
    }
    if (document.records.size() < document.meta.ran_cells) {
        Fail(error, "document has fewer records than ran_cells claims");
        return std::nullopt;
    }
    return document;
}

std::optional<SweepDocument>
LoadSweepFile(const std::string& path, std::string* error)
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
    std::optional<SweepDocument> document =
        ParseSweepDocument(contents, &parse_error);
    if (!document) {
        Fail(error, path + ": " + parse_error);
    }
    return document;
}

std::string
RecordIdentity(const stats::RunRecord& record)
{
    std::string key = record.bench;
    key += kSep;
    key += record.workload;
    key += kSep;
    key += record.dirty_policy;
    key += kSep;
    key += record.ref_policy;
    key += kSep;
    key += std::to_string(record.memory_mb);
    key += kSep;
    key += std::to_string(record.rep);
    key += kSep;
    key += std::to_string(record.seed);
    return key;
}

std::string
RecordPayload(const stats::RunRecord& record)
{
    if (!record.telemetry) {
        return stats::JsonWriter::ToJson(record);
    }
    stats::RunRecord stripped = record;
    stripped.telemetry.reset();
    return stats::JsonWriter::ToJson(stripped);
}

std::optional<SweepDocument>
MergeDocuments(std::vector<SweepDocument> documents,
               const MergeOptions& options, std::string* error)
{
    if (documents.empty()) {
        Fail(error, "no documents to merge");
        return std::nullopt;
    }
    const stats::DocumentMeta& first = documents[0].meta;
    std::set<uint32_t> indices;
    uint64_t ran_sum = 0;
    for (const SweepDocument& document : documents) {
        const stats::DocumentMeta& meta = document.meta;
        if (meta.bench != first.bench) {
            Fail(error, "bench mismatch: '" + first.bench + "' vs '" +
                            meta.bench + "'");
            return std::nullopt;
        }
        if (meta.shard_count != first.shard_count) {
            Fail(error, "shard count mismatch: " +
                            std::to_string(first.shard_count) + " vs " +
                            std::to_string(meta.shard_count));
            return std::nullopt;
        }
        if (meta.total_cells != first.total_cells) {
            Fail(error, "total_cells mismatch: " +
                            std::to_string(first.total_cells) + " vs " +
                            std::to_string(meta.total_cells) +
                            " (different sweep shapes?)");
            return std::nullopt;
        }
        if (!indices.insert(meta.shard_index).second) {
            Fail(error, "shard " + std::to_string(meta.shard_index) + "/" +
                            std::to_string(meta.shard_count) +
                            " appears more than once");
            return std::nullopt;
        }
        ran_sum += meta.ran_cells;
    }
    if (indices.size() != first.shard_count) {
        std::string missing;
        for (uint32_t i = 0; i < first.shard_count; ++i) {
            if (indices.find(i) == indices.end()) {
                missing += missing.empty() ? "" : ", ";
                missing += std::to_string(i);
            }
        }
        Fail(error, "missing shard(s) " + missing + " of " +
                        std::to_string(first.shard_count));
        return std::nullopt;
    }
    if (first.total_cells > 0 && ran_sum != first.total_cells) {
        Fail(error,
             std::string(ran_sum > first.total_cells ? "duplicate"
                                                     : "missing") +
                 " cells: shards ran " + std::to_string(ran_sum) +
                 " of " + std::to_string(first.total_cells));
        return std::nullopt;
    }

    // Canonical order: cell identity, then telemetry-stripped payload,
    // then the full serialization as a deterministic tiebreaker.
    struct Entry {
        std::string identity;
        std::string payload;
        std::string full;
        stats::RunRecord record;
    };
    std::vector<Entry> entries;
    for (SweepDocument& document : documents) {
        for (stats::RunRecord& record : document.records) {
            if (options.strip_telemetry) {
                record.telemetry.reset();
            }
            Entry entry;
            entry.identity = RecordIdentity(record);
            entry.payload = RecordPayload(record);
            entry.full = stats::JsonWriter::ToJson(record);
            entry.record = std::move(record);
            entries.push_back(std::move(entry));
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                  return std::tie(a.identity, a.payload, a.full) <
                         std::tie(b.identity, b.payload, b.full);
              });

    SweepDocument merged;
    merged.meta.bench = first.bench;
    merged.meta.total_cells = first.total_cells;
    merged.meta.ran_cells = ran_sum;
    for (size_t i = 0; i < entries.size(); ++i) {
        if (i > 0 && entries[i].identity == entries[i - 1].identity) {
            if (entries[i].payload != entries[i - 1].payload) {
                Fail(error,
                     "conflicting records for one cell (workload " +
                         entries[i].record.workload + ", " +
                         std::to_string(entries[i].record.memory_mb) +
                         " MB, rep " +
                         std::to_string(entries[i].record.rep) +
                         ", seed " +
                         std::to_string(entries[i].record.seed) +
                         "): incompatible shard runs?");
                return std::nullopt;
            }
            // Identical payload: the same deterministic record computed
            // by several shards (bespoke records); keep one.
            continue;
        }
        merged.records.push_back(std::move(entries[i].record));
    }
    return merged;
}

std::string
ToJson(const SweepDocument& document)
{
    return stats::JsonWriter::ToJson(document.meta, document.records);
}

}  // namespace spur::sweep
