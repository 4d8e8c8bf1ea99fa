/**
 * @file
 * TlbSystem: the conventional machine the paper argues against — a
 * physically addressed cache behind a TLB.
 *
 * Every reference translates through the TLB before (conceptually, in
 * series with) the cache access, so translation adds a cycle to every
 * hit; in exchange the reference and dirty bits are checked and set as a
 * side effect of the mandatory TLB access — no faults, no dirty-bit
 * misses, no flush-on-clear.  A TLB miss walks the two-level page table
 * in memory.
 *
 * Differences from the virtual-cache machine that the model captures:
 *  - hit time: t_cache_hit + t_tlb vs. t_cache_hit;
 *  - bit maintenance: free vs. the Section 3/4 machinery;
 *  - page reclaim: a TLB shootdown instead of a cache flush (the
 *    physical cache needs no flush when a *virtual* page dies; its
 *    frame's lines are invalidated when the frame is refilled by I/O);
 *  - the page daemon reads true reference bits (TLB systems get REF
 *    semantics for free).
 *
 * Shares the Sprite VM, frame table, page table, and workload machinery
 * with the SPUR machine, so `bench/ablation_tlb_baseline` can run the
 * identical workload on both.
 */
#ifndef SPUR_CORE_TLB_SYSTEM_H_
#define SPUR_CORE_TLB_SYSTEM_H_

#include <cstdint>

#include "src/cache/cache.h"
#include "src/cache/flusher.h"
#include "src/common/types.h"
#include "src/core/kernel.h"
#include "src/policy/ref_policy.h"
#include "src/pt/pte.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/xlate/tlb.h"

namespace spur::core {

/** The TLB + physical-cache baseline machine. */
class TlbSystem final : public KernelHost
{
  public:
    explicit TlbSystem(const sim::MachineConfig& config,
                       uint32_t tlb_entries = 64);

    ~TlbSystem();

    TlbSystem(const TlbSystem&) = delete;
    TlbSystem& operator=(const TlbSystem&) = delete;

    Kernel& kernel() override { return kernel_; }
    const Kernel& kernel() const override { return kernel_; }

    // ---- The hot path ------------------------------------------------------

    /** Executes one memory reference. */
    void Access(const MemRef& ref) override;

    void Access(Pid pid, ProcessAddr addr, AccessType type)
    {
        Access(MemRef{pid, addr, type});
    }

    // ---- State access ------------------------------------------------------

    const xlate::Tlb& tlb() const { return tlb_; }

  private:
    /**
     * The VM's reclaim flush, physical-cache style: translate the dying
     * page to its frame, invalidate the frame's cache lines, and shoot
     * the TLB entry down.
     */
    class ReclaimFlusher : public cache::PageFlusher
    {
      public:
        explicit ReclaimFlusher(TlbSystem& system) : system_(system) {}
        cache::FlushResult FlushPageChecked(GlobalAddr addr) override;

      private:
        TlbSystem& system_;
    };

    /** TLB machines maintain true reference bits for free. */
    class TlbRefPolicy : public policy::RefPolicy
    {
      public:
        explicit TlbRefPolicy(TlbSystem& system) : system_(system) {}
        policy::RefPolicyKind kind() const override
        {
            return policy::RefPolicyKind::kRef;
        }
        bool ReadRefBit(const pt::Pte& pte) const override
        {
            return pte.referenced();
        }
        policy::RefCost ClearRefBit(pt::Pte& pte, GlobalAddr page_addr,
                                    sim::EventCounts& events) override;

      private:
        TlbSystem& system_;
    };

    xlate::Tlb tlb_;
    cache::VirtualCache pcache_;  ///< Physically indexed/tagged cache.
    ReclaimFlusher flusher_;
    Kernel kernel_;
    Cycles t_tlb_ = 1;         ///< Serial TLB access per reference.
    Cycles t_walk_;            ///< Page-table walk on a TLB miss.

    /** Translates, updating R/D for free; returns the live PTE. */
    pt::Pte& Translate(GlobalAddr gva, bool is_write);
};

}  // namespace spur::core

#endif  // SPUR_CORE_TLB_SYSTEM_H_
