/**
 * @file
 * Machine-readable experiment results.
 *
 * Every bench binary can emit its runs as JSON (--json=FILE) instead of
 * print-only tables, so the perf trajectory can be tracked by tooling.
 * A RunRecord is one observation — typically one (config, repetition)
 * cell of the experiment matrix — flattened to plain fields plus an
 * ordered list of bench-specific named metrics.
 *
 * Documents are stamped with kSchemaVersion and a shard header (which
 * slice of the sweep this file holds; see src/sweep/) so the spur_sweep
 * tool can validate files and merge per-shard outputs deterministically.
 */
#ifndef SPUR_STATS_RUN_RECORD_H_
#define SPUR_STATS_RUN_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spur::stats {

/**
 * Version of the JSON document layout.  Bump on any change to the
 * document or record shape; spur_sweep rejects versions it does not
 * know (tests/sweep_test.cc round-trips the current shape).
 */
inline constexpr int kSchemaVersion = 1;

/** One machine-readable run observation. */
struct RunRecord {
    std::string bench;         ///< Producing binary, e.g. "table_4_1_refbits".
    std::string workload;      ///< Workload name ("" when not applicable).
    std::string dirty_policy;  ///< Dirty-bit policy name ("" if n/a).
    std::string ref_policy;    ///< Reference-bit policy name ("" if n/a).
    uint32_t memory_mb = 0;
    uint32_t rep = 0;          ///< Repetition index within its config.
    uint64_t seed = 0;         ///< The seed the run actually used.
    uint64_t refs_issued = 0;
    uint64_t page_ins = 0;
    uint64_t page_outs = 0;
    double elapsed_seconds = 0.0;
    /// Bench-specific extras, kept ordered for byte-stable output.
    std::vector<std::pair<std::string, double>> metrics;

    /** Appends one named metric. */
    void AddMetric(const std::string& name, double value)
    {
        metrics.emplace_back(name, value);
    }
};

/** Document-level header: producing bench plus sweep shard accounting. */
struct DocumentMeta {
    std::string bench;
    uint32_t shard_index = 0;   ///< This file's shard (0-based).
    uint32_t shard_count = 1;   ///< Total shards of the sweep (1 = full).
    /// Work units (matrix cells) in the *whole* sweep, and how many this
    /// document ran; 0/0 when the producer did not track cells.
    uint64_t total_cells = 0;
    uint64_t ran_cells = 0;
};

/** Serializes RunRecords as a JSON document. */
class JsonWriter
{
  public:
    /** JSON string escaping (quotes, backslashes, control characters). */
    static std::string Escape(const std::string& s);

    /** Renders one record as a flat JSON object. */
    static std::string ToJson(const RunRecord& record);

    /**
     * Renders the whole document:
     * {"schema_version": V, "bench": NAME, "shard": {...},
     *  "records": [ ... ]}.
     */
    static std::string ToJson(const DocumentMeta& meta,
                              const std::vector<RunRecord>& records);

    /** Convenience overload: full (unsharded, untracked) document. */
    static std::string ToJson(const std::string& bench,
                              const std::vector<RunRecord>& records);

    /**
     * Writes the document to @p path ("-" = stdout).  Returns false on
     * I/O failure.
     */
    static bool WriteFile(const std::string& path, const DocumentMeta& meta,
                          const std::vector<RunRecord>& records);

    /** Convenience overload: full (unsharded, untracked) document. */
    static bool WriteFile(const std::string& path, const std::string& bench,
                          const std::vector<RunRecord>& records);
};

}  // namespace spur::stats

#endif  // SPUR_STATS_RUN_RECORD_H_
