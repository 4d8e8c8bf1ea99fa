/**
 * @file
 * Sweep-level trace glue: how --record-trace / --replay-trace thread a
 * SPUR-TRACE/1 library (src/workload/trace.h) through core::RunOnce.
 *
 * A stream's identity — workload, seed, refs, intensity, page/block
 * geometry — deliberately excludes the policies and memory size under
 * test, so a matrix of many cells maps onto few distinct streams.  The
 * recorder exploits that: the first cell to Claim() an identity records
 * it (generators are pure, so every would-be recorder produces the
 * same bytes); the rest run plain.  Claimed streams are committed to
 * the file whole and fsync'd under one mutex, so a killed sweep leaves
 * a recoverable complete-stream prefix and parallel cells never
 * interleave frames.  The replay side is a read-only library shared by
 * every cell without locking.
 */
#ifndef SPUR_CORE_RUN_TRACE_H_
#define SPUR_CORE_RUN_TRACE_H_

#include <map>
#include <string>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/experiment.h"
#include "src/workload/trace.h"

namespace spur::core {

/**
 * The stream identity RunOnce records or replays for @p config: the
 * workload name, the cell seed, the effective reference budget, the
 * intensity knob, and the machine's page/block geometry.
 */
workload::TraceStreamMeta TraceMetaFor(const RunConfig& config);

/**
 * One --record-trace file shared by every cell of a session.
 * Thread-safe; cells race through Claim() and the winner commits.
 */
class TraceRecordSession
{
  public:
    /** Creates/truncates @p path (magic + header, fsync'd). */
    bool Open(const std::string& path, std::string* error)
        SPUR_EXCLUDES(mutex_);

    /**
     * True iff the calling cell should record @p identity: the first
     * claimant wins, later cells (and re-runs of the same identity)
     * run unrecorded.
     */
    bool Claim(const std::string& identity) SPUR_EXCLUDES(mutex_);

    /**
     * Commits a claimed stream's TraceEncoder::Finish() bytes.  A
     * failed append is remembered (Finish() then fails) rather than
     * fatal, so the sweep's own results still land.
     */
    void Commit(const std::string& identity, const std::string& bytes)
        SPUR_EXCLUDES(mutex_);

    /** Writes the trailer; false + *error on failure. */
    bool Finish(std::string* error) SPUR_EXCLUDES(mutex_);

  private:
    Mutex mutex_;
    workload::TraceFileWriter writer_ SPUR_GUARDED_BY(mutex_);
    /// Identities claimed so far.  std::map for determinism-by-habit;
    /// only membership is queried.
    std::map<std::string, bool> claimed_ SPUR_GUARDED_BY(mutex_);
    bool failed_ SPUR_GUARDED_BY(mutex_) = false;
};

/**
 * The loaded --replay-trace library.  Load() once before the sweep;
 * afterwards it is immutable, so parallel cells call Find() freely.
 * A cell whose identity is missing from the library is a Fatal user
 * error in RunOnce (a partial trace silently degrading to live
 * generation would defeat the byte-identity contract).
 */
class TraceReplaySource
{
  public:
    bool Load(const std::string& path, std::string* error);

    const workload::TraceStream* Find(const std::string& identity) const
    {
        return library_.Find(identity);
    }

    const workload::TraceLibrary& library() const { return library_; }

  private:
    workload::TraceLibrary library_;
};

}  // namespace spur::core

#endif  // SPUR_CORE_RUN_TRACE_H_
