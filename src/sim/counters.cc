#include "src/sim/counters.h"

#include <string>

#include "src/common/log.h"

namespace spur::sim {

namespace {

/**
 * The four event sets, mirroring the groupings the paper describes: basic
 * reference/miss counts, translation performance, dirty/reference bit
 * machinery, and virtual-memory activity.  Unused slots hold Event::kCount.
 */
constexpr Event kModeTable[kNumCounterModes][kNumHwCounters] = {
    // Mode 0: processor references and cache behaviour.
    {Event::kIFetch, Event::kRead, Event::kWrite, Event::kIFetchMiss,
     Event::kReadMiss, Event::kWriteMiss, Event::kWriteback,
     Event::kBlockFlush, Event::kPageFlush, Event::kWriteHitCleanBlock,
     Event::kWriteMissFill, Event::kContextSwitch, Event::kCount,
     Event::kCount, Event::kCount, Event::kCount},
    // Mode 1: in-cache translation performance.
    {Event::kXlatePteHit, Event::kXlatePteMiss, Event::kXlateL2Access,
     Event::kIFetchMiss, Event::kReadMiss, Event::kWriteMiss,
     Event::kPageFault, Event::kPageIn, Event::kZeroFill, Event::kCount,
     Event::kCount, Event::kCount, Event::kCount, Event::kCount,
     Event::kCount, Event::kCount},
    // Mode 2: dirty- and reference-bit events (the Section 3/4 counters).
    {Event::kDirtyFault, Event::kDirtyFaultZfod, Event::kDirtyBitMiss,
     Event::kExcessFault, Event::kWriteHitCleanBlock, Event::kWriteMissFill,
     Event::kDirtyCheck, Event::kRefFault, Event::kRefClear,
     Event::kRefClearFlush, Event::kCount, Event::kCount, Event::kCount,
     Event::kCount, Event::kCount, Event::kCount},
    // Mode 3: virtual-memory and paging activity.
    {Event::kPageFault, Event::kPageIn, Event::kZeroFill,
     Event::kPageOutDirty, Event::kPageReclaimClean,
     Event::kPageoutWritableModified, Event::kPageoutWritableNotModified,
     Event::kDaemonSweep, Event::kRefClear, Event::kContextSwitch,
     Event::kCount, Event::kCount, Event::kCount, Event::kCount,
     Event::kCount, Event::kCount},
};

}  // namespace

PerfCounters::PerfCounters(const EventCounts& counts)
    : counts_(&counts), snapshot_(counts)
{
}

void
PerfCounters::SetMode(unsigned mode)
{
    if (mode >= kNumCounterModes) {
        Fatal("PerfCounters: mode must be 0..3, got " + std::to_string(mode));
    }
    mode_ = mode;
    Clear();
}

uint32_t
PerfCounters::Read(size_t index) const
{
    if (index >= kNumHwCounters) {
        Fatal("PerfCounters: register index out of range");
    }
    const Event event = kModeTable[mode_][index];
    if (event == Event::kCount) {
        return 0;
    }
    // The 32-bit wrap is intended.
    return static_cast<uint32_t>(counts_->Get(event) - snapshot_.Get(event));
}

Event
PerfCounters::SlotEvent(unsigned mode, size_t index)
{
    if (mode >= kNumCounterModes || index >= kNumHwCounters) {
        return Event::kCount;
    }
    return kModeTable[mode][index];
}

int
PerfCounters::IndexOf(Event event) const
{
    for (size_t i = 0; i < kNumHwCounters; ++i) {
        if (kModeTable[mode_][i] == event) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

}  // namespace spur::sim
