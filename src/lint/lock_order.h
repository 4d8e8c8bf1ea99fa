/**
 * @file
 * Static lock-order deadlock detection (DESIGN.md §18).
 *
 * The scanner (cxx_scan.h) reports every site that acquires a
 * spur::MutexLock — or blocks in CondVar::Wait — while already
 * holding another lock in the same function context.  Each such pair is
 * an edge `held -> acquired` in a global lock-order graph; a cycle in
 * that graph means two code paths take the same locks in opposite
 * orders, which is a deadlock waiting for the right interleaving.
 *
 * This complements the clang thread-safety annotations (§13): the
 * annotations prove each individual access holds the right lock, but
 * say nothing about the *order* different call sites impose between
 * locks.  TSan can see orders, but only on the interleavings a test
 * happens to execute; the graph here is over every nesting the source
 * spells out, on every build.
 *
 * The model is intraprocedural: a lock named through a local object
 * gets a function-scoped node id and can never alias another
 * function's locks, so findings are conservative — a reported cycle
 * names real global/member locks with witnessing sites for every edge.
 */
#ifndef SPUR_LINT_LOCK_ORDER_H_
#define SPUR_LINT_LOCK_ORDER_H_

#include <string>
#include <vector>

#include "src/lint/cxx_scan.h"
#include "src/lint/lint.h"

namespace spur::lint {

/** Rule name of every lock-order finding. */
inline constexpr char kLockOrderRule[] = "lock-order";

/** One-line summary for --list-rules / DESIGN.md. */
inline constexpr char kLockOrderSummary[] =
    "the global lock-acquisition-order graph (nested MutexLock / "
    "CondVar::Wait sites) is acyclic";

/** The global lock-order graph accumulated over every scanned file. */
class LockOrderGraph
{
  public:
    /** Adds one observed nesting; the first witness per (first, second)
     *  pair is kept. */
    void AddEdge(const LockEdge& edge);

    /**
     * One violation per cycle in the graph, each anchored at the
     * witnessing site of its first edge and naming a witness for every
     * edge in the cycle.  Deterministic: cycles report in canonical
     * rotation (smallest node first), sorted.
     */
    std::vector<Violation> CheckCycles() const;

    /** Number of distinct edges. */
    size_t edge_count() const { return edges_.size(); }

  private:
    std::vector<LockEdge> edges_;
};

}  // namespace spur::lint

#endif  // SPUR_LINT_LOCK_ORDER_H_
