/**
 * @file
 * Shared harness for the bench and example binaries' standard flags,
 * replacing the per-binary hand-rolled loops:
 *
 *   --jobs=N      worker threads for experiment runs (default: hardware
 *                 concurrency); read back with jobs() by benches with
 *                 their own runner::ParallelFor loops.
 *   --json=F      write every run this session observed to F as JSON
 *                 run records ("-" = stdout) for the perf trajectory.
 *   --record-trace=F
 *                 capture each distinct workload stream this session
 *                 generates into F as a SPUR-TRACE/1 library
 *                 (src/workload/trace.h): the first cell per stream
 *                 identity records, every other cell runs plain.
 *                 Streams land in matrix order, so F's bytes are the
 *                 same at any --jobs; a stream finished early is held
 *                 in memory until its turn, never its cell's thread.
 *                 The file is fsync'd per stream, so a killed run
 *                 leaves a recoverable prefix (`spur_trace validate`).
 *   --replay-trace=F
 *                 drive every cell from the recorded op streams in F
 *                 instead of the live generators; results — and the
 *                 --json bytes — are byte-identical to a live run at
 *                 any --jobs.  A cell whose stream is missing from F is
 *                 a Fatal error, never a silent live run.
 *
 * The trace flags reach session cells only (RunMatrix / RunAll).  A
 * bench that runs no session cell fails Finish() when given either
 * flag.  A bench that mixes bespoke loops with session cells (e.g.
 * ablation_policy_variants' SPUR vs SPUR-PROT pair) still runs its
 * bespoke part live.
 *
 * A session always runs and records its whole sweep in one process;
 * the --shard, --stream and --resume flags are rejected with a Fatal
 * error rather than ignored, so a stale script cannot pass off a full
 * sweep as a shard.
 *
 * Usage:
 *   const Args args(argc, argv);
 *   runner::BenchSession session("table_4_1_refbits", args);
 *   const auto results = session.RunMatrix(configs, reps);
 *   ... print tables ...
 *   return session.Finish();
 */
#ifndef SPUR_RUNNER_SESSION_H_
#define SPUR_RUNNER_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/args.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/stats/run_record.h"

namespace spur::runner {

/** Per-binary session: parses the standard flags, collects run records. */
class BenchSession
{
  public:
    /**
     * Reads the standard flags from @p args.  A removed flag (--shard,
     * --stream, --resume), both trace flags at once, or an unusable
     * trace file is a Fatal() user error.
     */
    BenchSession(std::string bench_name, const Args& args);

    /** The effective worker count for this session (never 0). */
    unsigned jobs() const { return jobs_; }

    /**
     * Parallel experiment matrix (see runner::RunMatrix) on this
     * session's job count.  Once every cell has finished, each is
     * recorded in (config, rep) order, so the --json bytes are the same
     * at any --jobs.
     */
    std::vector<std::vector<core::RunResult>> RunMatrix(
        const std::vector<core::RunConfig>& configs, uint32_t reps);

    /**
     * Runs each config exactly once (seed verbatim) in parallel and
     * returns results in input order; the runs are recorded in input
     * order once all have finished.
     */
    std::vector<core::RunResult> RunAll(
        const std::vector<core::RunConfig>& configs);

    /**
     * Records one standard run observation.  Thread-safe: bespoke
     * benches may record from parallel loops (the record sink is
     * guarded by an annotated mutex, DESIGN.md §13), though recording
     * order — and therefore --json byte order — is deterministic only
     * when records are appended from one thread, as RunMatrix/RunAll
     * do.
     */
    void Record(const core::RunConfig& config, uint32_t rep,
                const core::RunResult& result) SPUR_EXCLUDES(mutex_);

    /** Records a bespoke observation (benches with custom run loops). */
    void Record(stats::RunRecord record) SPUR_EXCLUDES(mutex_);

    /** Snapshot of the collected records, in recording order. */
    std::vector<stats::RunRecord> records() const SPUR_EXCLUDES(mutex_);

    /**
     * Writes the --json file if one was requested, stamped with the
     * schema version and this session's cell count, and finishes the
     * --record-trace file if one is open.  Returns the process exit
     * code: non-zero if any write failed, or if a trace flag was given
     * and no session cell ran.
     */
    int Finish() SPUR_EXCLUDES(mutex_);

  private:
    /** Builds the standard record for one executed cell. */
    stats::RunRecord MakeRecord(const core::RunConfig& config, uint32_t rep,
                                const core::RunResult& result) const;

    /** Copies @p configs with this session's trace record/replay hooks
     *  injected (no-op copies when neither flag was given). */
    std::vector<core::RunConfig> WithTraceHooks(
        const std::vector<core::RunConfig>& configs) const;

    std::string bench_;
    std::string json_path_;
    unsigned jobs_;
    /// Matrix cells run so far (every RunMatrix/RunAll cell); mutated
    /// on the owning thread between runs.
    uint64_t total_cells_ = 0;
    /// --record-trace / --replay-trace state; null when not requested.
    /// Pointers to these are injected into every RunConfig the session
    /// executes (core::RunConfig::trace_record / trace_replay).
    std::unique_ptr<core::TraceRecordSession> trace_record_;
    std::unique_ptr<core::TraceReplaySource> trace_replay_;
    // The record sink is shared with whatever thread calls Record();
    // the guard is machine-checked (src/common/thread_annotations.h).
    mutable Mutex mutex_;
    std::vector<stats::RunRecord> records_ SPUR_GUARDED_BY(mutex_);
};

}  // namespace spur::runner

#endif  // SPUR_RUNNER_SESSION_H_
