/**
 * @file
 * Sweep-level trace glue: how --record-trace / --replay-trace thread a
 * SPUR-TRACE/1 library (src/workload/trace.h) through core::RunOnce,
 * and the one helper that records a live run's op stream.
 *
 * A stream's identity — workload, seed, refs, intensity, page/block
 * geometry — deliberately excludes the policies and memory size under
 * test, so a matrix of many cells maps onto few distinct streams.  The
 * recorder exploits that: the first cell to Claim() an identity records
 * it (generators are pure, so every would-be recorder produces the
 * same bytes); the rest run plain.  Streams land whole and fsync'd, in
 * the order of their first cells in the matrix, so a killed sweep
 * leaves a recoverable complete-stream prefix and the file's bytes do
 * not depend on --jobs.  A stream finished before its turn is held in
 * memory; no cell waits.  The replay side is a read-only library
 * shared by every cell without locking.
 */
#ifndef SPUR_CORE_RUN_TRACE_H_
#define SPUR_CORE_RUN_TRACE_H_

#include <cstdint>
#include <functional>
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

/** One stream recorded by RecordLiveStream. */
struct RecordedStream {
    std::string bytes;  ///< TraceEncoder::Finish() bytes.
    uint64_t ops = 0;
    uint64_t accesses = 0;
};

/**
 * Drives SpecFor(@p config) to its budget through @p host, recording
 * every host call into a stream of identity TraceMetaFor(@p config).
 * Pid normalization makes the bytes the same whatever @p host is (the
 * live machine or the counts-only CountingHost).  @p at_end, when set,
 * runs once the budget is spent, with the references issued, before
 * the driver tears its processes down: RunOnce samples the machine's
 * counters there, and teardown ops do not enter the stream.
 */
RecordedStream RecordLiveStream(
    const RunConfig& config, workload::WorkloadHost& host,
    const std::function<void(uint64_t refs_issued)>& at_end = nullptr);

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

    /** True iff the calling cell should record @p identity: the first
     *  claimant wins, later cells of the identity run unrecorded. */
    bool Claim(const std::string& identity) SPUR_EXCLUDES(mutex_);

    /**
     * Hands over a claimed stream's TraceEncoder::Finish() bytes without
     * waiting: the stream is held until every stream placed before it
     * has landed.  A failed append is remembered (Finish() then fails)
     * rather than fatal, so the sweep's own results still land.
     */
    void Commit(const std::string& identity, std::string bytes)
        SPUR_EXCLUDES(mutex_);

    /** Writes the trailer; false + *error when an append failed or a
     *  placed stream never landed (the file is then a partial trace). */
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
    workload::TraceFileWriter writer_ SPUR_GUARDED_BY(mutex_);
    std::map<std::string, Stream> streams_ SPUR_GUARDED_BY(mutex_);
    /// Committed streams waiting for an earlier place, by place.
    std::map<size_t, std::string> held_ SPUR_GUARDED_BY(mutex_);
    /// Places given out so far, and the place of the next stream to land.
    size_t places_ SPUR_GUARDED_BY(mutex_) = 0;
    size_t next_ SPUR_GUARDED_BY(mutex_) = 0;
    bool failed_ SPUR_GUARDED_BY(mutex_) = false;
};

}  // namespace spur::core

#endif  // SPUR_CORE_RUN_TRACE_H_
