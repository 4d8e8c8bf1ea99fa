#include "src/runner/runner.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/check/audit.h"
#include "src/audit/dominance.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/common/thread_annotations.h"
#include "src/runner/thread_pool.h"

namespace spur::runner {

namespace {

/** Resolves a user-facing job count (0 = default) against the work size. */
unsigned
EffectiveJobs(unsigned jobs, size_t count)
{
    if (jobs == 0) {
        jobs = DefaultJobs();
    }
    return static_cast<unsigned>(
        std::min<size_t>(jobs, std::max<size_t>(count, 1)));
}

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
MatrixOrder(size_t num_configs, uint32_t reps, uint64_t shuffle_seed)
{
    std::vector<CellId> cells;
    cells.reserve(num_configs * reps);
    for (size_t i = 0; i < num_configs; ++i) {
        for (uint32_t r = 0; r < reps; ++r) {
            cells.push_back(CellId{i, r});
        }
    }
    Rng rng(shuffle_seed);
    for (size_t i = cells.size(); i > 1; --i) {
        std::swap(cells[i - 1], cells[rng.NextBelow(i)]);
    }
    return cells;
}

void
ParallelFor(size_t count, unsigned jobs,
            const std::function<void(size_t)>& fn)
{
    if (count == 0) {
        return;
    }
    jobs = EffectiveJobs(jobs, count);
    std::vector<std::exception_ptr> errors(count);
    if (jobs <= 1) {
        for (size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    } else {
        // Completion gate shared with the workers; the counter's guard
        // is machine-checked via the annotation (DESIGN.md §13).
        struct Gate {
            Mutex mutex;
            CondVar all_done;
            size_t finished SPUR_GUARDED_BY(mutex) = 0;
        } gate;
        ThreadPool pool(jobs);
        for (size_t i = 0; i < count; ++i) {
            pool.Submit([&, i] {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
                {
                    MutexLock lock(gate.mutex);
                    ++gate.finished;
                }
                gate.all_done.NotifyOne();
            });
        }
        {
            MutexLock lock(gate.mutex);
            while (gate.finished != count) {
                gate.all_done.Wait(gate.mutex);
            }
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
          uint64_t shuffle_seed, unsigned jobs)
{
    const std::vector<CellId> cells =
        MatrixOrder(configs.size(), reps, shuffle_seed);
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
