/**
 * @file
 * Crash-tolerant streaming record output (DESIGN.md §14).
 *
 * `BenchSession` historically buffered every record until `Finish()`,
 * so a crashed or OOM-killed shard lost its whole slice.  A stream file
 * is the incremental alternative: each completed cell is appended as an
 * fsync'd length-prefixed frame the moment it is recorded, so a killed
 * process leaves every finished cell on disk.  The format:
 *
 *     SPUR-STREAM/1\n                    magic line
 *     H <len>\n<header-json>\n           bench name + shard index/count
 *     R <len>\n<record-json>\n           one frame per RunRecord, in
 *     ...                                recording order (fsync'd each)
 *     T <len>\n<trailer-json>\n          record count, schema_version,
 *                                        full shard header, FNV-1a64
 *                                        content digest (hex)
 *
 * The framing, the digest and the truncated-vs-corrupt rule are the
 * shared framed-log codec's (src/common/framed_log.h, DESIGN.md §20);
 * this file owns only the payloads.  Frame payloads are exactly the
 * bytes `stats::JsonWriter` emits for the same object, so a recovered
 * document re-serializes byte-identically.
 *
 * Recovery semantics (spur_sweep recover): a stream cut at any byte
 * offset recovers to the longest prefix of complete frames; the torn
 * tail is dropped and reported.  A stream with a verified trailer
 * recovers to the exact document `--json` would have written.  Damage
 * that truncation cannot explain (bad magic, a corrupt frame, a record
 * that does not round-trip, a trailer whose count or digest disagrees)
 * is a hard error, never a silent partial result.  tests/stream_test.cc
 * cuts a stream at every byte offset and proves recover + --resume
 * reproduce the uninterrupted document byte for byte.
 */
#ifndef SPUR_SWEEP_STREAM_H_
#define SPUR_SWEEP_STREAM_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/framed_log.h"
#include "src/stats/run_record.h"
#include "src/sweep/merge.h"

namespace spur::sweep {

/** Version of the stream framing; bump on any framing change. */
inline constexpr int kStreamVersion = 1;

/** First line of every stream file. */
inline constexpr char kStreamMagic[] = "SPUR-STREAM/1\n";

// Payload encoding used by StreamWriter, which frames these payloads with
// framed_log::EncodeFrame and digests the record payloads with
// framed_log::DigestMix.  Public so tests can build streams byte for
// byte without a writer.

/** The header-frame payload (stream version, bench, shard K/N). */
std::string EncodeStreamHeaderPayload(const std::string& bench,
                                      uint32_t shard_index,
                                      uint32_t shard_count);

/**
 * The trailer-frame payload: record count, schema version, the full
 * shard header from @p meta, and the content digest in hex.
 */
std::string EncodeStreamTrailerPayload(const stats::DocumentMeta& meta,
                                       uint64_t records, uint64_t digest);

/**
 * Appends records to a stream file as they are recorded.  Every write
 * (the header at Open, each record frame, the trailer at Finish) is
 * flushed with fsync before the call returns, so the on-disk prefix is
 * always a recoverable stream.  Not thread-safe; BenchSession serializes
 * calls under its record mutex.
 */
class StreamWriter
{
  public:
    /**
     * Creates/truncates @p path and writes the magic line plus the
     * header frame (bench name, shard index/count).  False + *error on
     * I/O failure.
     */
    bool Open(const std::string& path, const std::string& bench,
              uint32_t shard_index, uint32_t shard_count,
              std::string* error);

    /** Appends one fsync'd record frame.  False + *error on failure. */
    bool Append(const stats::RunRecord& record, std::string* error);

    /**
     * Writes the trailer frame (record count, schema version, the full
     * shard header from @p meta, content digest) and closes the file.
     * False + *error on failure (the file is closed either way).
     */
    bool Finish(const stats::DocumentMeta& meta, std::string* error);

    /** True between a successful Open and Finish (or a write failure). */
    bool is_open() const { return log_.is_open(); }

    /** Record frames appended so far. */
    uint64_t appended() const { return appended_; }

  private:
    framed_log::DurableAppender log_;
    uint64_t appended_ = 0;
    uint64_t digest_ = 0;
};

/** Outcome of reading a stream file back. */
struct RecoveredStream {
    /// True when the trailer was present and verified; the document is
    /// then exactly what --json would have written.  False = truncated
    /// stream; the document is a valid partial one (shard index/count
    /// from the header, 0/0 cell accounting) holding every complete
    /// record, suitable for --resume.
    bool complete = false;
    SweepDocument document;
    /// Torn tail bytes dropped after the last complete frame.
    uint64_t dropped_bytes = 0;
    /// One-line human-readable recovery summary.
    std::string note;
};

/**
 * Parses @p bytes as a stream.  Truncation at any byte offset recovers
 * the longest complete-frame prefix; corruption (anything truncation
 * cannot produce) returns nullopt with *error set.
 */
std::optional<RecoveredStream> RecoverStreamBytes(const std::string& bytes,
                                                  std::string* error);

/** Reads @p path and recovers it via RecoverStreamBytes. */
std::optional<RecoveredStream> RecoverStreamFile(const std::string& path,
                                                 std::string* error);

}  // namespace spur::sweep

#endif  // SPUR_SWEEP_STREAM_H_
