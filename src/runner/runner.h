/**
 * @file
 * Parallel run orchestration for the experiment matrix.
 *
 * Determinism contract (tested by tests/runner_test.cc, documented in
 * DESIGN.md): every (config, repetition) cell derives its seed from the
 * cell's identity alone (CellSeed), and every cell builds a private
 * SpurSystem inside core::RunOnce, so there is no shared mutable state
 * between runs.  Results are therefore bit-identical to the sequential
 * runner regardless of the job count or the order in which worker
 * threads finish cells.
 *
 * Progress callbacks are always invoked on the calling thread, one call
 * per completed cell, so existing single-threaded reporting code (table
 * accumulation, stderr printing) needs no locking.
 */
#ifndef SPUR_RUNNER_RUNNER_H_
#define SPUR_RUNNER_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/experiment.h"

namespace spur::runner {

/** One cell's identity in the matrix execution order. */
struct CellId {
    size_t config_index = 0;  ///< Index into the input config vector.
    uint32_t rep = 0;         ///< Repetition number in [0, reps).
};

/** Identity and outcome of one completed matrix cell. */
struct Cell {
    size_t config_index = 0;  ///< Index into the input config vector.
    uint32_t rep = 0;         ///< Repetition number in [0, reps).
    core::RunConfig config;   ///< The executed config (derived seed).
    core::RunResult result;
    /// False when MatrixOptions::skip elided the run (e.g. the cell was
    /// satisfied from a --resume file): identity and config are filled
    /// in, the result stays default.
    bool executed = true;
};

/** Fired once per completed cell, on the calling thread. */
using CellCallback = std::function<void(const Cell&)>;

/**
 * The per-repetition seed derivation, shared by every runner so that
 * sequential and parallel execution agree bit-for-bit.
 */
uint64_t CellSeed(uint64_t config_seed, uint32_t rep);

/**
 * The shuffled (config, rep) execution order of the paper's Section 4.2
 * randomized experiment design.  Depends only on the matrix shape and
 * @p shuffle_seed — never on the job count or sharding — so every
 * process of a distributed sweep agrees on each cell's ordinal, which
 * is what shard assignment (src/sweep/shard.h) keys on.
 */
std::vector<CellId> MatrixOrder(size_t num_configs, uint32_t reps,
                                uint64_t shuffle_seed);

/** Execution options for the sharded matrix runner. */
struct MatrixOptions {
    uint64_t shuffle_seed = 42;
    unsigned jobs = 0;        ///< 0 = DefaultJobs(), 1 = run inline.
    /// Run only cells whose ordinal o in the shuffled order satisfies
    /// (shard_offset + o) % shard_count == shard_index.  The offset
    /// lets a session spread consecutive RunMatrix calls evenly over
    /// shards by carrying its running cell count across calls.
    uint32_t shard_index = 0;
    uint32_t shard_count = 1;
    uint64_t shard_offset = 0;
    /// Optional resume hook, called once per owned cell — with the
    /// derived per-cell seed — before it is scheduled; true = do not
    /// run it.  Skipped cells still fire progress, with Cell::executed
    /// false, so callers can substitute previously recorded results.
    /// Skipping any cell disables the full-matrix dominance audit: the
    /// in-process grid is incomplete, exactly as under sharding.
    std::function<bool(const core::RunConfig& config, uint32_t rep)> skip;
};

/**
 * The sharded form of RunMatrix: executes the cells this shard owns and
 * leaves every other cell of the result matrix default-constructed.  The
 * union of all shards' executed cells is bit-identical to a single full
 * run (tests/sweep_test.cc).  Progress fires once per *owned* cell, on
 * the calling thread: executed cells carry their result, cells elided
 * by MatrixOptions::skip arrive with Cell::executed false.
 */
std::vector<std::vector<core::RunResult>> RunMatrix(
    const std::vector<core::RunConfig>& configs, uint32_t reps,
    const MatrixOptions& options, const CellCallback& progress = nullptr);

/**
 * Runs @p fn(i) for every i in [0, count) on up to @p jobs threads
 * (0 = DefaultJobs()).  Blocks until every index has finished.  If one
 * or more calls throw, the remaining indices still execute (the pool is
 * never abandoned mid-queue) and the first exception in index order is
 * rethrown on the calling thread.
 */
void ParallelFor(size_t count, unsigned jobs,
                 const std::function<void(size_t)>& fn);

/**
 * The parallel equivalent of the sequential experiment matrix: executes
 * every (config, rep) cell in the shuffled order of the paper's
 * randomized design, spreading cells over @p jobs worker threads
 * (0 = DefaultJobs(), 1 = run inline).  result[i][r] is repetition r of
 * configs[i], bit-identical for every job count.
 */
std::vector<std::vector<core::RunResult>> RunMatrix(
    const std::vector<core::RunConfig>& configs, uint32_t reps,
    uint64_t shuffle_seed = 42, unsigned jobs = 0,
    const CellCallback& progress = nullptr);

/**
 * Runs each config exactly once with its seed used verbatim (the
 * parallel form of a hand-rolled RunOnce loop) and returns results in
 * input order.
 */
std::vector<core::RunResult> RunAll(
    const std::vector<core::RunConfig>& configs, unsigned jobs = 0);

}  // namespace spur::runner

#endif  // SPUR_RUNNER_RUNNER_H_
