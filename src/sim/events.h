/**
 * @file
 * The full set of architectural events the simulator can observe.
 *
 * `EventCounts` is the simulator's ground truth (64-bit, all events at
 * once).  The paper read its event counts through the SPUR cache
 * controller's sixteen 32-bit mode-multiplexed counters [Wood87]; the
 * tables here read these counts directly.
 */
#ifndef SPUR_SIM_EVENTS_H_
#define SPUR_SIM_EVENTS_H_

#include <cstddef>
#include <array>
#include <cstdint>

#include "src/common/types.h"

namespace spur::sim {

/** Every countable event in the memory system. */
enum class Event : uint8_t {
    // Processor references.
    kIFetch,
    kRead,
    kWrite,
    // Cache behaviour.
    kIFetchMiss,
    kReadMiss,
    kWriteMiss,
    kWriteback,          ///< Dirty block written back on eviction.
    kBlockFlush,         ///< Individual block flush operations.
    kPageFlush,          ///< Whole-page flush operations.
    // In-cache translation [Wood86].
    kXlatePteHit,        ///< First-level PTE found in cache.
    kXlatePteMiss,       ///< First-level PTE missed; second level used.
    kXlateL2Access,      ///< Wired second-level PTE consulted.
    // Dirty-bit machinery (Section 3).
    kDirtyFault,         ///< Necessary dirty fault (N_ds), incl. zero-fill.
    kDirtyFaultZfod,     ///< The zero-fill subset of the above (N_zfod).
    kDirtyBitMiss,       ///< Cached page-dirty bit stale (N_dm = N_ef).
    kExcessFault,        ///< Excess protection fault (FAULT policy runs).
    kWriteHitCleanBlock, ///< Write hit on an unmodified block (N_w-hit).
    kWriteMissFill,      ///< Block brought in by a write miss (N_w-miss).
    kDirtyCheck,         ///< PTE dirty-bit probe (WRITE policy).
    // Reference-bit machinery (Section 4).
    kRefFault,           ///< Fault taken to set a reference bit.
    kRefClear,           ///< Page daemon cleared a reference bit.
    kRefClearFlush,      ///< ...and flushed the page (REF policy).
    // Virtual memory.
    kPageIn,             ///< Page read from backing store.
    kZeroFill,           ///< Zero-fill-on-demand page materialized.
    kPageOutDirty,       ///< Modified page written to backing store.
    kPageReclaimClean,   ///< Unmodified page dropped without I/O.
    kPageoutWritableModified,    ///< Replaced writable page was dirty.
    kPageoutWritableNotModified, ///< Replaced writable page was clean.
    kDaemonSweep,        ///< Page-daemon activations.
    kPageFault,          ///< Any page fault (resident bit clear).
    // Scheduling.
    kContextSwitch,
    // Multiprocessor bus (Berkeley Ownership, [Katz85]).
    kBusRead,            ///< Read-miss bus transaction.
    kBusReadOwned,       ///< Write-miss (read-with-ownership) transaction.
    kBusUpgrade,         ///< Ownership upgrade of a shared line.
    kBusCacheToCache,    ///< Block supplied by an owning peer cache.
    kBusInvalidation,    ///< A peer's copy invalidated by a transaction.
    kCount,              ///< Number of enumerators; keep last.
};

/** Number of distinct events. */
inline constexpr size_t kNumEvents = static_cast<size_t>(Event::kCount);

/** Returns a short stable name for an event (for tables and traces). */
const char* ToString(Event event);

/** Ground-truth 64-bit counters for all events. */
class EventCounts
{
  public:
    /** Increments @p event by @p n. */
    void Add(Event event, uint64_t n = 1)
    {
        counts_[static_cast<size_t>(event)] += n;
    }

    /** Returns the current count of @p event. */
    uint64_t Get(Event event) const
    {
        return counts_[static_cast<size_t>(event)];
    }

    /** Total processor references (ifetch + read + write). */
    uint64_t TotalRefs() const
    {
        return Get(Event::kIFetch) + Get(Event::kRead) + Get(Event::kWrite);
    }

    /** Total cache misses across reference types. */
    uint64_t TotalMisses() const
    {
        return Get(Event::kIFetchMiss) + Get(Event::kReadMiss) +
               Get(Event::kWriteMiss);
    }

  private:
    std::array<uint64_t, kNumEvents> counts_{};
};

// The reference-type events and their miss counterparts mirror the
// AccessType encoding, so classifying a reference is one indexed counter
// add instead of a data-dependent (mispredict-prone) three-way branch.
inline constexpr unsigned kMissEventOffset =
    static_cast<unsigned>(Event::kIFetchMiss) -
    static_cast<unsigned>(Event::kIFetch);
static_assert(static_cast<unsigned>(Event::kIFetch) ==
              static_cast<unsigned>(AccessType::kIFetch));
static_assert(static_cast<unsigned>(Event::kRead) ==
              static_cast<unsigned>(AccessType::kRead));
static_assert(static_cast<unsigned>(Event::kWrite) ==
              static_cast<unsigned>(AccessType::kWrite));
static_assert(static_cast<unsigned>(Event::kReadMiss) ==
              static_cast<unsigned>(AccessType::kRead) + kMissEventOffset);
static_assert(static_cast<unsigned>(Event::kWriteMiss) ==
              static_cast<unsigned>(AccessType::kWrite) + kMissEventOffset);

/** The event counting a processor reference of @p type. */
constexpr Event
RefEvent(AccessType type)
{
    return static_cast<Event>(static_cast<unsigned>(type));
}

/** The event counting a cache miss by a reference of @p type. */
constexpr Event
MissEvent(AccessType type)
{
    return static_cast<Event>(static_cast<unsigned>(type) +
                              kMissEventOffset);
}

}  // namespace spur::sim

#endif  // SPUR_SIM_EVENTS_H_
