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
 * interleave frames.  Streams land in the order of their first cells
 * in the matrix, not in the order cells finish, so the file's bytes do
 * not depend on --jobs.  The replay side is a read-only library shared
 * by every cell without locking.
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
     * Gives @p identity the next place in the file unless it has one.
     * The session calls this for every cell, in the order cells start,
     * before it runs them; an identity nobody reserved takes the next
     * place when it is claimed.
     */
    void Reserve(const std::string& identity) SPUR_EXCLUDES(mutex_);

    /**
     * True iff the calling cell should record @p identity: the first
     * claimant wins, later cells (and re-runs of the same identity)
     * run unrecorded.  A cell claims before anything else it does, so
     * every reserved place has a claimant once its first cell starts.
     */
    bool Claim(const std::string& identity) SPUR_EXCLUDES(mutex_);

    /**
     * Commits a claimed stream's TraceEncoder::Finish() bytes at its
     * place: waits until every stream placed before it has landed.
     * Cells start in place order, so the stream it waits for is being
     * recorded by a running cell, and at most about one stream per
     * running cell is held.  A failed append is remembered (Finish()
     * then fails) rather than fatal, so the sweep's own results still
     * land.
     */
    void Commit(const std::string& identity, const std::string& bytes)
        SPUR_EXCLUDES(mutex_);

    /**
     * Gives up a claimed stream that will not be committed (its cell
     * threw): the trace is partial from here on, and no later stream
     * waits for it.
     */
    void Abandon(const std::string& identity) SPUR_EXCLUDES(mutex_);

    /** Writes the trailer; false + *error on failure. */
    bool Finish(std::string* error) SPUR_EXCLUDES(mutex_);

  private:
    /** A stream's place in the file and whether a cell records it. */
    struct Stream {
        size_t place = 0;
        bool claimed = false;
    };

    /** The entry of @p identity, placed next if it is new. */
    Stream& Place(const std::string& identity) SPUR_REQUIRES(mutex_);

    Mutex mutex_;
    CondVar landed_;
    workload::TraceFileWriter writer_ SPUR_GUARDED_BY(mutex_);
    std::map<std::string, Stream> streams_ SPUR_GUARDED_BY(mutex_);
    /// Places given out so far, and the place of the next stream to land.
    size_t places_ SPUR_GUARDED_BY(mutex_) = 0;
    size_t next_ SPUR_GUARDED_BY(mutex_) = 0;
    bool failed_ SPUR_GUARDED_BY(mutex_) = false;
};

}  // namespace spur::core

#endif  // SPUR_CORE_RUN_TRACE_H_
