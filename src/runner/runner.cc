#include "src/runner/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "src/check/audit.h"
#include "src/audit/dominance.h"
#include "src/common/random.h"

namespace spur::runner {

namespace {

/** Seed of MatrixOrder's shuffle; fixed, so the run order is too. */
constexpr uint64_t kMatrixShuffleSeed = 42;

/**
 * Post-matrix audit (audit builds only): once every cell of the grid has
 * finished, the cross-policy dominance invariants are checkable — MIN is
 * a lower bound on dirty faults, reference bits never increase page-ins.
 */
void
AuditMatrix(const std::vector<core::RunConfig>& configs,
            const std::vector<std::vector<core::RunResult>>& results)
{
    if constexpr (check::kAuditEnabled) {
        audit::AuditDominance(configs, results)
            .RaiseIfFailed("runner::RunMatrix (post-matrix)");
    } else {
        (void)configs;
        (void)results;
    }
}

}  // namespace

uint64_t
CellSeed(uint64_t config_seed, uint32_t rep)
{
    // Distinct, reproducible seed per repetition; must never change, or
    // every recorded result in the perf trajectory shifts.
    return config_seed * 1000003 + rep * 7919 + 17;
}

std::vector<CellId>
MatrixOrder(size_t num_configs, uint32_t reps)
{
    std::vector<CellId> cells;
    cells.reserve(num_configs * reps);
    for (size_t i = 0; i < num_configs; ++i) {
        for (uint32_t r = 0; r < reps; ++r) {
            cells.push_back(CellId{i, r});
        }
    }
    Rng rng(kMatrixShuffleSeed);
    for (size_t i = cells.size(); i > 1; --i) {
        std::swap(cells[i - 1], cells[rng.NextBelow(i)]);
    }
    return cells;
}

unsigned
HardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return (n > 0) ? n : 1;
}

void
ParallelFor(size_t count, unsigned jobs,
            const std::function<void(size_t)>& fn)
{
    if (jobs == 0) {
        jobs = HardwareJobs();
    }
    // Every thread claims the next unclaimed index from one cursor; each
    // index owns its error slot, and the join publishes the slots (and
    // whatever fn wrote) to this thread.
    std::vector<std::exception_ptr> errors(count);
    std::atomic<size_t> cursor{0};
    const auto drain = [&] {
        for (size_t i = cursor++; i < count; i = cursor++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const size_t threads = std::min<size_t>(jobs, count);
    if (threads <= 1) {
        drain();
    } else {
        // A jthread joins when destroyed, so the threads already started
        // finish before an exception from starting the next one unwinds
        // past cursor, errors and fn.
        std::vector<std::jthread> workers;
        workers.reserve(threads);
        for (size_t t = 0; t < threads; ++t) {
            workers.emplace_back(drain);
        }
    }
    for (const std::exception_ptr& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
}

std::vector<std::vector<core::RunResult>>
RunMatrix(const std::vector<core::RunConfig>& configs, uint32_t reps,
          unsigned jobs)
{
    const std::vector<CellId> cells = MatrixOrder(configs.size(), reps);
    std::vector<std::vector<core::RunResult>> results(
        configs.size(), std::vector<core::RunResult>(reps));
    // One error slot per cell in (config, rep) order, so the rethrow
    // below is independent of completion order.
    std::vector<std::exception_ptr> errors(cells.size());
    ParallelFor(cells.size(), jobs, [&](size_t ordinal) {
        const CellId id = cells[ordinal];
        core::RunConfig config = configs[id.config_index];
        config.seed = CellSeed(config.seed, id.rep);
        try {
            results[id.config_index][id.rep] = core::RunOnce(config);
        } catch (...) {
            errors[id.config_index * reps + id.rep] =
                std::current_exception();
        }
    });
    for (const std::exception_ptr& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    AuditMatrix(configs, results);
    return results;
}

std::vector<core::RunResult>
RunAll(const std::vector<core::RunConfig>& configs, unsigned jobs)
{
    std::vector<core::RunResult> results(configs.size());
    ParallelFor(configs.size(), jobs,
                [&](size_t i) { results[i] = core::RunOnce(configs[i]); });
    return results;
}

}  // namespace spur::runner
