#include "src/stats/run_record.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace spur::stats {

namespace {

/** Shortest-round-trip double literal; non-finite becomes null. */
std::string
NumberToJson(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    // "%.17g" can produce "nan"/"inf" only for non-finite, handled above.
    return buffer;
}

std::string
Quoted(const std::string& s)
{
    // Built up with += (not a single operator+ chain): GCC 12's -Wrestrict
    // misfires on `const char* + string&&` inlined through char_traits
    // (GCC PR 105329).
    std::string out = "\"";
    out += JsonWriter::Escape(s);
    out += '"';
    return out;
}

}  // namespace

std::string
JsonWriter::Escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonWriter::ToJson(const RunRecord& record)
{
    std::string out = "{";
    out += "\"bench\": " + Quoted(record.bench);
    out += ", \"workload\": " + Quoted(record.workload);
    out += ", \"dirty_policy\": " + Quoted(record.dirty_policy);
    out += ", \"ref_policy\": " + Quoted(record.ref_policy);
    out += ", \"memory_mb\": " + std::to_string(record.memory_mb);
    out += ", \"rep\": " + std::to_string(record.rep);
    out += ", \"seed\": " + std::to_string(record.seed);
    out += ", \"refs_issued\": " + std::to_string(record.refs_issued);
    out += ", \"page_ins\": " + std::to_string(record.page_ins);
    out += ", \"page_outs\": " + std::to_string(record.page_outs);
    out += ", \"elapsed_seconds\": " + NumberToJson(record.elapsed_seconds);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : record.metrics) {
        if (!first) {
            out += ", ";
        }
        first = false;
        out += Quoted(name) + ": " + NumberToJson(value);
    }
    out += "}";
    out += "}";
    return out;
}

std::string
JsonWriter::ToJson(const DocumentMeta& meta,
                   const std::vector<RunRecord>& records)
{
    std::string out = "{\"schema_version\": ";
    out += std::to_string(kSchemaVersion);
    out += ", \"bench\": " + Quoted(meta.bench);
    out += ", \"shard\": {\"index\": " + std::to_string(meta.shard_index);
    out += ", \"count\": " + std::to_string(meta.shard_count);
    out += ", \"total_cells\": " + std::to_string(meta.total_cells);
    out += ", \"ran_cells\": " + std::to_string(meta.ran_cells);
    out += "}, \"records\": [";
    for (size_t i = 0; i < records.size(); ++i) {
        out += (i == 0) ? "\n  " : ",\n  ";
        out += ToJson(records[i]);
    }
    out += "\n]}\n";
    return out;
}

std::string
JsonWriter::ToJson(const std::string& bench,
                   const std::vector<RunRecord>& records)
{
    DocumentMeta meta;
    meta.bench = bench;
    return ToJson(meta, records);
}

bool
JsonWriter::WriteFile(const std::string& path, const DocumentMeta& meta,
                      const std::vector<RunRecord>& records)
{
    const std::string document = ToJson(meta, records);
    if (path == "-") {
        return std::fwrite(document.data(), 1, document.size(), stdout) ==
               document.size();
    }
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        return false;
    }
    const bool ok = std::fwrite(document.data(), 1, document.size(),
                                file) == document.size();
    return (std::fclose(file) == 0) && ok;
}

bool
JsonWriter::WriteFile(const std::string& path, const std::string& bench,
                      const std::vector<RunRecord>& records)
{
    DocumentMeta meta;
    meta.bench = bench;
    return WriteFile(path, meta, records);
}

}  // namespace spur::stats
