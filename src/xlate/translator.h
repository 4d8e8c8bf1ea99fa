/**
 * @file
 * SPUR's in-cache address translation [Wood86].
 *
 * There is no TLB.  On a cache miss the controller computes the global
 * virtual address of the first-level PTE with a shift-and-concatenate
 * circuit and looks for *that* address in the same unified cache — the
 * cache doubles as a very large TLB.  If the PTE block misses too, the
 * second-level PTE (wired in physical memory at a known address) supplies
 * the physical address of the first-level PTE page, which is then fetched
 * from memory into the cache.  Either way the access may then discover the
 * page is not resident and raise a page fault.
 */
#ifndef SPUR_XLATE_TRANSLATOR_H_
#define SPUR_XLATE_TRANSLATOR_H_

#include "src/cache/cache.h"
#include "src/common/types.h"
#include "src/pt/page_table.h"
#include "src/sim/config.h"
#include "src/sim/events.h"

namespace spur::xlate {

/** Outcome of one translation attempt. */
struct XlateResult {
    pt::Pte* pte = nullptr;  ///< The PTE (never null; may be !valid()).
    Cycles cycles = 0;       ///< Controller cycles spent translating.
    bool pte_hit = false;    ///< First-level PTE was found in the cache.
    bool evicted_dirty = false;  ///< PTE fill displaced a dirty block.
};

/**
 * The cache controller's translation engine.
 *
 * Header-inline: Translate() runs once per cache miss — the simulator's
 * second-hottest path — and inlining it into the miss handler lets the
 * PTE-block probe overlap the surrounding miss bookkeeping.
 */
class Translator
{
  public:
    Translator(cache::VirtualCache& vcache, pt::PageTable& table,
               const sim::MachineConfig& config)
        : vcache_(vcache),
          table_(table),
          pte_hit_cycles_(config.t_xlate_hit),
          block_fetch_cycles_(config.BlockFetchCycles()),
          page_shift_(config.PageShift())
    {
    }

    Translator(const Translator&) = delete;
    Translator& operator=(const Translator&) = delete;

    /**
     * Translates the page containing @p addr.
     *
     * Models the cache behaviour of the PTE fetch (possibly filling the
     * PTE's block into the cache, which can evict a data block) and counts
     * kXlatePteHit / kXlatePteMiss / kXlateL2Access in @p events.  The
     * returned PTE is the authoritative one: the caller must check
     * `valid()` and raise a page fault when clear.
     */
    XlateResult Translate(GlobalAddr addr, sim::EventCounts& events)
    {
        const GlobalVpn vpn = addr >> page_shift_;
        XlateResult result = TouchPteBlock(vpn, events);
        result.pte = &table_.Ensure(vpn);
        return result;
    }

    /**
     * Probes the PTE through the cache *without* the full miss sequence —
     * the dirty-bit check path used by the SPUR and WRITE policies.
     * Returns the cycle cost (t_xlate_hit on a cached PTE, plus a memory
     * fetch when it is not).
     */
    Cycles ProbePteCost(GlobalAddr addr, sim::EventCounts& events)
    {
        return TouchPteBlock(addr >> page_shift_, events).cycles;
    }

  private:
    cache::VirtualCache& vcache_;
    pt::PageTable& table_;
    Cycles pte_hit_cycles_;
    Cycles block_fetch_cycles_;
    unsigned page_shift_;

    /**
     * Ensures the PTE block for @p vpn is cached; returns everything of
     * the result but the PTE.  About a third of WORKLOAD1's misses also
     * miss the PTE block, a branch no predictor learns, so the outcome
     * only selects counts and charges: a PTE miss adds one to the miss
     * and second-level counts and a block fetch to the cost, and a
     * write-back one more.
     */
    XlateResult TouchPteBlock(GlobalVpn vpn, sim::EventCounts& events)
    {
        // A PTE miss consults the wired second-level table (physical
        // access, no recursion possible) and fetches the PTE block.
        // Page-table pages are wired kernel data: their lines carry
        // kernel read-write protection and a set page-dirty bit so
        // stores to PTEs (bit updates by fault handlers) never re-enter
        // the dirty machinery.
        const cache::Touched touched = vcache_.Touch(
            pt::PageTable::PteVa(vpn), Protection::kReadWrite,
            /*page_dirty=*/true);
        const uint64_t miss = touched.hit ? 0 : 1;
        events.Add(sim::Event::kXlatePteHit, 1 - miss);
        events.Add(sim::Event::kXlatePteMiss, miss);
        events.Add(sim::Event::kXlateL2Access, miss);
        events.Add(sim::Event::kWriteback, touched.writeback);
        XlateResult result;
        result.cycles = pte_hit_cycles_ +
                        (miss + touched.writeback) * block_fetch_cycles_;
        result.pte_hit = touched.hit;
        result.evicted_dirty = touched.writeback;
        return result;
    }
};

}  // namespace spur::xlate

#endif  // SPUR_XLATE_TRANSLATOR_H_
