/**
 * @file
 * Shared harness for the bench and example binaries.  A session
 * parses its binary's command line (src/common/args.h): the binary's
 * own flags plus these, and anything else is a usage error (exit 2)
 * before any cell runs.
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
 *   --refs=M, --reps=N, --seed=S
 *                 the suite flags bench/run_all.sh passes to every
 *                 binary, read with Refs(), Reps() and Seed() (a binary
 *                 with no use for one ignores it).
 *
 * The trace flags reach session cells only (RunMatrix / RunAll).  A
 * bench that runs no session cell fails Finish() when given either
 * flag.  A bench that mixes bespoke loops with session cells (e.g.
 * ablation_policy_variants' SPUR vs SPUR-PROT pair) still runs its
 * bespoke part live.
 *
 * Usage:
 *   runner::BenchSession session("table_4_1_refbits", argc, argv);
 *   const auto results = session.RunMatrix(configs, session.Reps(3));
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

/** The flags every session binary accepts (see the file comment),
 *  followed by the binary's own @p extra. */
std::vector<Flag> SessionFlags(std::vector<Flag> extra = {});

/** --memory-mb=N, the one spelling of a machine's memory size. */
inline const Flag kMemoryMbFlag = {"memory-mb", FlagKind::kUnsigned, 1,
                                   UINT32_MAX};

/** --workload=NAME, NAME a core::ToString(WorkloadId) spelling. */
Flag WorkloadFlag();

/** --@p name=POLICY, POLICY a policy::ToString(DirtyPolicyKind)
 *  spelling. */
Flag DirtyPolicyFlag(std::string name);

/** --@p name=POLICY, POLICY a policy::ToString(RefPolicyKind)
 *  spelling. */
Flag RefPolicyFlag(std::string name);

/** Per-binary session: parses the standard flags, collects run records. */
class BenchSession
{
  public:
    /**
     * Parses argv[1..argc) against SessionFlags(@p extra) (a usage
     * error exits 2) and reads the standard flags.  Both trace flags at
     * once, or an unusable trace file, is a Fatal() user error.
     */
    BenchSession(std::string bench_name, int argc, char** argv,
                 std::vector<Flag> extra = {});

    /** The parsed command line, for the binary's own flags. */
    const Args& args() const { return args_; }

    /** The effective worker count for this session (never 0). */
    unsigned jobs() const { return jobs_; }

    /** --refs in references (the flag counts millions), else
     *  @p fallback_millions million; 0 = each workload's own budget. */
    uint64_t Refs(uint64_t fallback_millions) const
    {
        return args_.GetUnsigned("refs", fallback_millions) * 1'000'000;
    }

    /** --reps, else @p fallback. */
    uint32_t Reps(uint32_t fallback) const
    {
        return static_cast<uint32_t>(args_.GetUnsigned("reps", fallback));
    }

    /** --seed, else @p fallback. */
    uint64_t Seed(uint64_t fallback) const
    {
        return args_.GetUnsigned("seed", fallback);
    }

    /** --memory-mb (declared with kMemoryMbFlag), else @p fallback. */
    uint32_t MemoryMb(uint32_t fallback) const
    {
        return static_cast<uint32_t>(args_.GetUnsigned("memory-mb", fallback));
    }

    /** --workload (declared with WorkloadFlag()), else @p fallback. */
    core::WorkloadId Workload(core::WorkloadId fallback) const;

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
    Args args_;
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
