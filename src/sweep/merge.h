/**
 * @file
 * Reading, validating and merging sweep JSON documents (the files
 * stats::JsonWriter emits behind --json).
 *
 * Merge contract (DESIGN.md §12, enforced here and exercised by CI):
 * shard files of one sweep must agree on bench name, schema version,
 * shard count and total cell count; their shard indices must cover
 * 0..N-1 exactly once; and their ran-cell counts must sum to the total
 * (more = duplicated cells, fewer = missing cells).  Records are merged
 * into a canonical order (sorted by cell identity, then payload), so
 * merging the N shard files of a sweep yields the byte-identical
 * document to merging the single-process full run.  Records whose
 * payload is identical collapse to one — that is how bespoke
 * (non-matrix) records every shard recomputes deterministically merge —
 * while records that share a cell identity but disagree on payload are
 * rejected as incompatible runs.
 */
#ifndef SPUR_SWEEP_MERGE_H_
#define SPUR_SWEEP_MERGE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/stats/run_record.h"
#include "src/sweep/json.h"

namespace spur::sweep {

/** One parsed sweep document: header plus records. */
struct SweepDocument {
    int schema_version = stats::kSchemaVersion;
    stats::DocumentMeta meta;
    std::vector<stats::RunRecord> records;
};

/**
 * Parses and schema-validates one sweep document.  Rejects unknown
 * schema versions, missing or mistyped fields, and unknown keys (an
 * unknown key would be silently dropped by a merge — data loss).
 * Returns nullopt and sets *error (if non-null) on failure.
 */
std::optional<SweepDocument> ParseSweepDocument(const std::string& json,
                                                std::string* error);

/** Reads @p path ("-" = stdin) and parses it as a sweep document. */
std::optional<SweepDocument> LoadSweepFile(const std::string& path,
                                           std::string* error);

/**
 * Parses one record object — an element of a document's "records" array
 * or a stream record frame (src/sweep/stream.h) — with the same strict
 * schema validation ParseSweepDocument applies: unknown, missing,
 * duplicate or mistyped fields are errors.  False + *error on failure.
 */
bool ParseRunRecord(const JsonValue& value, stats::RunRecord* out,
                    std::string* error);

/**
 * Parses a shard-header object ({"index", "count", "total_cells",
 * "ran_cells"}) into @p meta, range-checking index < count and
 * ran_cells <= total_cells.  Shared by the document parser and the
 * stream trailer reader.  False + *error on failure.
 */
bool ParseShardHeader(const JsonValue& value, stats::DocumentMeta* meta,
                      std::string* error);

/**
 * Standalone shard-accounting check (`spur_sweep validate`): when
 * total_cells > 0, ran_cells must equal the size of this shard's slice
 * of the matrix, |{o < total_cells : o mod count == index}| — the count
 * BenchSession writes after running (or resuming) its whole slice.
 * Documents violating this historically passed `validate` and only
 * failed at merge time; this catches them standalone.  Not part of
 * ParseSweepDocument: partial documents (recovered streams, hand-cut
 * fixtures) are parseable, just not valid sweep outputs.  False +
 * *error on violation.
 */
bool ValidateShardAccounting(const SweepDocument& document,
                             std::string* error);

/**
 * The record's cell identity: workload, policies, memory size,
 * repetition and seed.  Two records of one sweep with equal identity
 * must be the same cell.
 */
std::string RecordIdentity(const stats::RunRecord& record);

/**
 * Merges shard documents into one canonical full document (a single
 * input canonicalizes record order in place).  Returns nullopt and sets
 * *error on any contract violation listed in the file comment.
 */
std::optional<SweepDocument> MergeDocuments(
    std::vector<SweepDocument> documents, std::string* error);

/** Serializes @p document in stats::JsonWriter's format. */
std::string ToJson(const SweepDocument& document);

}  // namespace spur::sweep

#endif  // SPUR_SWEEP_MERGE_H_
