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

/**
 * The per-repetition seed derivation, shared by every runner so that
 * sequential and parallel execution agree bit-for-bit.
 */
uint64_t CellSeed(uint64_t config_seed, uint32_t rep);

/**
 * The shuffled (config, rep) execution order of the paper's Section 4.2
 * randomized experiment design: a Fisher-Yates pass under a fixed
 * seed.  Depends only on the matrix shape, never on the job count.
 */
std::vector<CellId> MatrixOrder(size_t num_configs, uint32_t reps);

/** Threads to use when the caller passes jobs = 0: hardware concurrency
 *  (never 0). */
unsigned HardwareJobs();

/**
 * Runs @p fn(i) for every i in [0, count) on min(jobs, count) threads
 * (0 = HardwareJobs(); 1 = inline on the calling thread), which take
 * indices from one shared cursor.  Blocks until every index has
 * finished.  If one or more calls throw, the remaining indices still
 * execute and the first exception in index order is rethrown on the
 * calling thread.
 */
void ParallelFor(size_t count, unsigned jobs,
                 const std::function<void(size_t)>& fn);

/**
 * The parallel equivalent of the sequential experiment matrix: executes
 * every (config, rep) cell in the shuffled order of the paper's
 * randomized design, spreading cells over @p jobs worker threads
 * (0 = HardwareJobs(), 1 = run inline).  result[i][r] is repetition r of
 * configs[i], run at seed CellSeed(configs[i].seed, r), bit-identical
 * for every job count.  Every cell runs even if some throw; the error
 * of the failed cell with the lowest (config, rep) is then rethrown,
 * whatever the completion order.
 */
std::vector<std::vector<core::RunResult>> RunMatrix(
    const std::vector<core::RunConfig>& configs, uint32_t reps,
    unsigned jobs = 0);

/**
 * Runs each config exactly once with its seed used verbatim (the
 * parallel form of a hand-rolled RunOnce loop) and returns results in
 * input order.
 */
std::vector<core::RunResult> RunAll(
    const std::vector<core::RunConfig>& configs, unsigned jobs = 0);

}  // namespace spur::runner

#endif  // SPUR_RUNNER_RUNNER_H_
