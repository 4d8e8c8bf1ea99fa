/**
 * @file
 * Hardware-faithful model of the SPUR cache controller's performance
 * counters: sixteen 32-bit counters whose meaning is selected by a 2-bit
 * mode register, one of four event sets at a time [Wood87].  The real
 * experiments in the paper were taken through exactly this window, so we
 * model its limitations (32-bit wrap, one mode at a time) and let tests
 * verify that the windowed view agrees with the 64-bit ground truth.
 */
#ifndef SPUR_SIM_COUNTERS_H_
#define SPUR_SIM_COUNTERS_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/events.h"

namespace spur::sim {

/** Number of hardware counters on the cache controller chip. */
inline constexpr size_t kNumHwCounters = 16;

/** Number of selectable event sets. */
inline constexpr size_t kNumCounterModes = 4;

/**
 * The cache controller's on-chip counter block, read as a window over the
 * ground-truth EventCounts.
 *
 * Selecting a mode or clearing snapshots the counts; a register then
 * reads the low 32 bits of its event's count minus the snapshot.  That
 * is exactly what a 32-bit register zeroed at the snapshot and bumped by
 * every later event holds, wrap included, since truncation to 32 bits
 * commutes with addition — so the simulator counts each event once and
 * the window costs nothing until it is read.
 */
class PerfCounters
{
  public:
    /** A window over @p counts (which must outlive it), in mode 0. */
    explicit PerfCounters(const EventCounts& counts);

    /** Selects the active event set (0..3) and zeroes the registers. */
    void SetMode(unsigned mode);

    /** Currently selected mode. */
    unsigned mode() const { return mode_; }

    /** Reads hardware counter @p index (0..15) in the current mode. */
    uint32_t Read(size_t index) const;

    /** Zeroes all sixteen registers without changing the mode. */
    void Clear() { snapshot_ = *counts_; }

    /**
     * Returns the event monitored by counter @p index in @p mode, or
     * Event::kCount when the slot is unused.
     */
    static Event SlotEvent(unsigned mode, size_t index);

    /**
     * Returns the counter index of @p event in the current mode, or -1 if
     * this mode does not capture it.
     */
    int IndexOf(Event event) const;

  private:
    const EventCounts* counts_;
    EventCounts snapshot_;
    unsigned mode_ = 0;
};

}  // namespace spur::sim

#endif  // SPUR_SIM_COUNTERS_H_
