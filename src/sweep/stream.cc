#include "src/sweep/stream.h"

#include <string_view>
#include <utility>

#include "src/sweep/json.h"

namespace spur::sweep {

namespace {

constexpr std::string_view kStreamTags = "HRT";

bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

/** Reads one exact non-negative integer member, or fails. */
bool
HeaderUint(const JsonValue& object, const char* key, uint64_t* out,
           std::string* why)
{
    const JsonValue* field = object.Find(key);
    if (field == nullptr) {
        return Fail(why, std::string("missing '") + key + "'");
    }
    const std::optional<uint64_t> value = field->AsUint64();
    if (!value) {
        return Fail(why, std::string("'") + key +
                             "' must be a non-negative integer");
    }
    *out = *value;
    return true;
}

/**
 * Parses the header frame payload:
 * {"stream_version": 1, "bench": NAME, "shard": {"index": K, "count": N}}.
 */
bool
ParseStreamHeader(const std::string& payload, stats::DocumentMeta* meta,
                  std::string* why)
{
    std::string parse_error;
    const std::optional<JsonValue> root = ParseJson(payload, &parse_error);
    if (!root || !root->IsObject()) {
        return Fail(why, root ? "header is not an object" : parse_error);
    }
    if (root->members().size() != 3) {
        return Fail(why, "header must have exactly stream_version, bench "
                         "and shard");
    }
    uint64_t version = 0;
    if (!HeaderUint(*root, "stream_version", &version, why)) {
        return false;
    }
    if (version != static_cast<uint64_t>(kStreamVersion)) {
        return Fail(why, "unknown stream_version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kStreamVersion) + ")");
    }
    const JsonValue* bench = root->Find("bench");
    if (bench == nullptr || !bench->IsString()) {
        return Fail(why, "'bench' must be a string");
    }
    const JsonValue* shard = root->Find("shard");
    if (shard == nullptr || !shard->IsObject() ||
        shard->members().size() != 2) {
        return Fail(why, "'shard' must be an object with index and count");
    }
    uint64_t index = 0;
    uint64_t count = 0;
    if (!HeaderUint(*shard, "index", &index, why) ||
        !HeaderUint(*shard, "count", &count, why)) {
        return false;
    }
    if (count == 0 || index >= count || count > UINT32_MAX) {
        return Fail(why, "shard index " + std::to_string(index) +
                             " out of range for count " +
                             std::to_string(count));
    }
    meta->bench = bench->AsString();
    meta->shard_index = static_cast<uint32_t>(index);
    meta->shard_count = static_cast<uint32_t>(count);
    return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

std::string
EncodeStreamHeaderPayload(const std::string& bench, uint32_t shard_index,
                          uint32_t shard_count)
{
    std::string header = "{\"stream_version\": ";
    header += std::to_string(kStreamVersion);
    header += ", \"bench\": \"";
    header += stats::JsonWriter::Escape(bench);
    header += "\", \"shard\": {\"index\": ";
    header += std::to_string(shard_index);
    header += ", \"count\": ";
    header += std::to_string(shard_count);
    header += "}}";
    return header;
}

std::string
EncodeStreamTrailerPayload(const stats::DocumentMeta& meta,
                           uint64_t records, uint64_t digest)
{
    std::string trailer = "{\"records\": ";
    trailer += std::to_string(records);
    trailer += ", \"schema_version\": ";
    trailer += std::to_string(stats::kSchemaVersion);
    trailer += ", \"shard\": {\"index\": ";
    trailer += std::to_string(meta.shard_index);
    trailer += ", \"count\": ";
    trailer += std::to_string(meta.shard_count);
    trailer += ", \"total_cells\": ";
    trailer += std::to_string(meta.total_cells);
    trailer += ", \"ran_cells\": ";
    trailer += std::to_string(meta.ran_cells);
    trailer += "}, \"digest\": \"";
    trailer += framed_log::DigestHex(digest);
    trailer += "\"}";
    return trailer;
}

// ---------------------------------------------------------------------------
// StreamWriter
// ---------------------------------------------------------------------------

bool
StreamWriter::Open(const std::string& path, const std::string& bench,
                   uint32_t shard_index, uint32_t shard_count,
                   std::string* error)
{
    if (!log_.Open(path, error)) {
        return false;
    }
    appended_ = 0;
    digest_ = framed_log::kDigestInit;
    return log_.Append(kStreamMagic +
                           framed_log::EncodeFrame(
                               'H', EncodeStreamHeaderPayload(
                                        bench, shard_index, shard_count)),
                       error);
}

bool
StreamWriter::Append(const stats::RunRecord& record, std::string* error)
{
    const std::string payload = stats::JsonWriter::ToJson(record);
    if (!log_.Append(framed_log::EncodeFrame('R', payload), error)) {
        return false;
    }
    digest_ = framed_log::DigestMix(digest_, payload);
    ++appended_;
    return true;
}

bool
StreamWriter::Finish(const stats::DocumentMeta& meta, std::string* error)
{
    const bool ok = log_.Append(
        framed_log::EncodeFrame(
            'T', EncodeStreamTrailerPayload(meta, appended_, digest_)),
        error);
    log_.Close();
    return ok;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

std::optional<RecoveredStream>
RecoverStreamBytes(const std::string& bytes, std::string* error)
{
    RecoveredStream out;
    switch (framed_log::CheckMagic(bytes, kStreamMagic)) {
      case framed_log::ParseStatus::kTruncated:
        out.dropped_bytes = bytes.size();
        out.note = "stream cut inside the magic line; nothing recovered";
        return out;
      case framed_log::ParseStatus::kCorrupt:
        Fail(error, "not a SPUR stream (bad magic)");
        return std::nullopt;
      case framed_log::ParseStatus::kOk:
        break;
    }
    size_t pos = std::string_view(kStreamMagic).size();

    // Header frame.
    framed_log::Frame frame;
    std::string why;
    if (pos >= bytes.size()) {
        out.note = "stream cut before the header frame; nothing recovered";
        return out;
    }
    switch (framed_log::ParseFrame(bytes, pos, kStreamTags,
                                   framed_log::kMaxFilePayload, &frame,
                                   &why)) {
      case framed_log::ParseStatus::kTruncated:
        out.dropped_bytes = bytes.size() - pos;
        out.note = "stream cut inside the header frame; nothing recovered";
        return out;
      case framed_log::ParseStatus::kCorrupt:
        Fail(error, "corrupt stream: " + why + " at byte " +
                        std::to_string(pos));
        return std::nullopt;
      case framed_log::ParseStatus::kOk:
        break;
    }
    if (frame.tag != 'H') {
        Fail(error, "corrupt stream: first frame is not a header");
        return std::nullopt;
    }
    if (!ParseStreamHeader(std::string(frame.payload), &out.document.meta,
                           &why)) {
        Fail(error, "corrupt stream header: " + why);
        return std::nullopt;
    }
    pos = frame.end;

    uint64_t digest = framed_log::kDigestInit;
    while (pos < bytes.size()) {
        const size_t frame_start = pos;
        switch (framed_log::ParseFrame(bytes, pos, kStreamTags,
                                       framed_log::kMaxFilePayload, &frame,
                                       &why)) {
          case framed_log::ParseStatus::kTruncated:
            out.dropped_bytes = bytes.size() - frame_start;
            out.note = "truncated stream: recovered " +
                       std::to_string(out.document.records.size()) +
                       " record(s), dropped " +
                       std::to_string(out.dropped_bytes) +
                       " torn tail byte(s)";
            return out;
          case framed_log::ParseStatus::kCorrupt:
            Fail(error, "corrupt stream: " + why + " at byte " +
                            std::to_string(frame_start));
            return std::nullopt;
          case framed_log::ParseStatus::kOk:
            break;
        }
        if (frame.tag == 'H') {
            Fail(error, "corrupt stream: duplicate header frame at byte " +
                            std::to_string(frame_start));
            return std::nullopt;
        }
        std::string parse_error;
        const std::optional<JsonValue> root =
            ParseJson(std::string(frame.payload), &parse_error);
        if (frame.tag == 'R') {
            stats::RunRecord record;
            if (!root || !ParseRunRecord(*root, &record, &parse_error)) {
                Fail(error, "corrupt record frame at byte " +
                                std::to_string(frame_start) + ": " +
                                parse_error);
                return std::nullopt;
            }
            if (stats::JsonWriter::ToJson(record) != frame.payload) {
                Fail(error,
                     "record frame at byte " + std::to_string(frame_start) +
                         " does not round-trip (corrupt or foreign "
                         "producer)");
                return std::nullopt;
            }
            digest = framed_log::DigestMix(digest, frame.payload);
            out.document.records.push_back(std::move(record));
            pos = frame.end;
            continue;
        }

        // Trailer frame: verify and require it to be final.
        if (!root || !root->IsObject()) {
            Fail(error, "corrupt trailer: " +
                            (root ? std::string("not an object")
                                  : parse_error));
            return std::nullopt;
        }
        if (root->members().size() != 4) {
            Fail(error, "corrupt trailer: must have exactly records, "
                        "schema_version, shard and digest");
            return std::nullopt;
        }
        uint64_t count = 0;
        uint64_t version = 0;
        if (!HeaderUint(*root, "records", &count, &why) ||
            !HeaderUint(*root, "schema_version", &version, &why)) {
            Fail(error, "corrupt trailer: " + why);
            return std::nullopt;
        }
        if (version != static_cast<uint64_t>(stats::kSchemaVersion)) {
            Fail(error, "trailer claims unknown schema_version " +
                            std::to_string(version));
            return std::nullopt;
        }
        if (count != out.document.records.size()) {
            Fail(error, "trailer record count disagrees: trailer claims " +
                            std::to_string(count) + ", stream holds " +
                            std::to_string(out.document.records.size()));
            return std::nullopt;
        }
        const JsonValue* shard = root->Find("shard");
        stats::DocumentMeta trailer_meta;
        if (shard == nullptr ||
            !ParseShardHeader(*shard, &trailer_meta, &parse_error)) {
            Fail(error, "corrupt trailer: " +
                            (shard ? parse_error
                                   : std::string("missing 'shard'")));
            return std::nullopt;
        }
        if (trailer_meta.shard_index != out.document.meta.shard_index ||
            trailer_meta.shard_count != out.document.meta.shard_count) {
            Fail(error, "trailer shard " +
                            std::to_string(trailer_meta.shard_index) + "/" +
                            std::to_string(trailer_meta.shard_count) +
                            " disagrees with header shard " +
                            std::to_string(out.document.meta.shard_index) +
                            "/" +
                            std::to_string(out.document.meta.shard_count));
            return std::nullopt;
        }
        if (out.document.records.size() < trailer_meta.ran_cells) {
            Fail(error, "trailer claims more ran_cells than the stream "
                        "holds records");
            return std::nullopt;
        }
        const JsonValue* digest_field = root->Find("digest");
        if (digest_field == nullptr || !digest_field->IsString()) {
            Fail(error, "corrupt trailer: 'digest' must be a string");
            return std::nullopt;
        }
        if (digest_field->AsString() != framed_log::DigestHex(digest)) {
            Fail(error, "content digest mismatch: trailer has " +
                            digest_field->AsString() + ", records hash "
                            "to " + framed_log::DigestHex(digest) +
                            " (corrupt records?)");
            return std::nullopt;
        }
        if (frame.end != bytes.size()) {
            Fail(error, "trailing bytes after the trailer frame");
            return std::nullopt;
        }
        out.document.meta.shard_index = trailer_meta.shard_index;
        out.document.meta.shard_count = trailer_meta.shard_count;
        out.document.meta.total_cells = trailer_meta.total_cells;
        out.document.meta.ran_cells = trailer_meta.ran_cells;
        out.complete = true;
        out.note = "complete stream: " +
                   std::to_string(out.document.records.size()) +
                   " record(s), trailer verified";
        return out;
    }
    out.note = "truncated stream (no trailer): recovered " +
               std::to_string(out.document.records.size()) + " record(s)";
    return out;
}

std::optional<RecoveredStream>
RecoverStreamFile(const std::string& path, std::string* error)
{
    std::string contents;
    if (!framed_log::ReadFile(path, &contents, error)) {
        return std::nullopt;
    }
    std::string recover_error;
    std::optional<RecoveredStream> recovered =
        RecoverStreamBytes(contents, &recover_error);
    if (!recovered) {
        Fail(error, path + ": " + recover_error);
    }
    return recovered;
}

}  // namespace spur::sweep
