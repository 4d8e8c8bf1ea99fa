/**
 * @file
 * The Sprite-like virtual memory system [Nels86]: page-fault handling,
 * zero-fill-on-demand, and a two-hand clock page daemon whose treatment of
 * reference bits is delegated to the pluggable RefPolicy and whose notion
 * of "dirty" is delegated to the pluggable DirtyPolicy.
 *
 * Replacement mechanics:
 *  - When the free list drops below a low watermark the daemon sweeps two
 *    clock hands over the pageable frames.  The front hand clears each
 *    page's reference bit (under the REF policy this also flushes the page
 *    from the virtual cache); the back hand, a fixed gap behind, reclaims
 *    pages whose bit is still clear.
 *  - A reclaimed page is first flushed from the virtual cache (mandatory:
 *    the cache is virtually tagged, so a frame must never be reused while
 *    stale lines remain), then paged out if the dirty policy says it was
 *    modified, else dropped.
 *  - Following Sprite (footnote 4 of the paper), a zero-fill page is
 *    always written to swap on its first replacement even when clean.
 */
#ifndef SPUR_VM_VM_H_
#define SPUR_VM_VM_H_

#include <cstdint>

#include "src/cache/cache.h"
#include "src/cache/flusher.h"
#include "src/common/types.h"
#include "src/mem/backing_store.h"
#include "src/mem/frame_table.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/pt/page_table.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/sim/timing.h"
#include "src/vm/region.h"

namespace spur::vm {

/** The virtual memory manager. */
class VirtualMemory
{
  public:
    VirtualMemory(const sim::MachineConfig& config, pt::PageTable& table,
                  cache::PageFlusher& flusher, sim::EventCounts& events,
                  sim::TimingModel& timing);

    VirtualMemory(const VirtualMemory&) = delete;
    VirtualMemory& operator=(const VirtualMemory&) = delete;

    /** Installs the policies; must be called before any fault. */
    void SetPolicies(policy::DirtyPolicy* dirty, policy::RefPolicy* ref);

    /** Declares an address-space region (workload setup). */
    void MapRegion(GlobalVpn start, uint64_t pages, PageKind kind);

    /**
     * Tears down the region at @p start (process exit): frees frames,
     * flushes its pages from the cache, discards swap copies.
     */
    void UnmapRegion(GlobalVpn start);

    /**
     * Makes the page containing @p addr resident (called by the system on
     * an invalid PTE).  Charges fault-handler time, paging I/O and the
     * page daemon's work to the timing model.  Returns the live PTE.
     */
    pt::Pte& HandlePageFault(GlobalAddr addr);

    /** The frame table (for tests and reports). */
    const mem::FrameTable& frames() const { return frames_; }

    /** The backing store (for tests and reports). */
    const mem::BackingStore& store() const { return store_; }

    /** The region registry (for tests). */
    const RegionMap& regions() const { return regions_; }

    /** Low watermark in frames (daemon trigger). */
    uint32_t LowWatermark() const { return low_water_; }

    /** High watermark in frames (daemon target). */
    uint32_t HighWatermark() const { return high_water_; }

  private:
    const sim::MachineConfig& config_;
    pt::PageTable& table_;
    cache::PageFlusher& flusher_;
    sim::EventCounts& events_;
    sim::TimingModel& timing_;
    policy::DirtyPolicy* dirty_policy_ = nullptr;
    policy::RefPolicy* ref_policy_ = nullptr;

    mem::FrameTable frames_;
    mem::BackingStore store_;
    RegionMap regions_;

    uint32_t low_water_;
    uint32_t high_water_;
    FrameNum front_hand_;
    FrameNum back_hand_;
    unsigned page_shift_;

    /** Runs the daemon until @p target frames are free (or gives up). */
    void SweepToTarget(uint32_t target);

    /** Advances @p hand one frame with wraparound. */
    FrameNum Advance(FrameNum hand) const;

    /** Reclaims the page in @p frame; returns false if the frame is
     *  unbound. @p force skips the reference-bit test. */
    bool TryReclaim(FrameNum frame, bool force);

    /** Flushes @p vpn's blocks from the virtual cache, charging time. */
    void FlushPageForReclaim(GlobalVpn vpn);
};

}  // namespace spur::vm

#endif  // SPUR_VM_VM_H_
