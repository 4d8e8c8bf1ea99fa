/**
 * @file
 * Kernel: the Sprite kernel every simulated machine runs, and
 * KernelHost, the WorkloadHost face a machine presents over it.
 *
 * The uniprocessor (SpurSystem), the multiprocessor (MpSpurSystem) and
 * the TLB baseline (TlbSystem) differ in their caches and access paths
 * only; the two SPUR machines run one access path (access_path.h) and
 * differ there only by coherence.  Everything else — the segment map,
 * the page table, the VM and its page daemon, the page daemon's view of
 * the dirty/reference policies, the per-process region map, the event
 * counts and the cycle accounting, and the kernel entry points that act
 * on them (process lifecycle, context switches, the page daemon's
 * reference-bit clear, kernel page flushes, the audit) — is one Kernel,
 * which the machine builds over its page-flush path.
 */
#ifndef SPUR_CORE_KERNEL_H_
#define SPUR_CORE_KERNEL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cache/cache.h"
#include "src/cache/flusher.h"
#include "src/check/checker.h"
#include "src/common/types.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/pt/page_table.h"
#include "src/pt/segment_map.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/sim/timing.h"
#include "src/vm/vm.h"
#include "src/workload/host.h"

namespace spur::core {

/** One machine's Sprite kernel and the state it owns. */
class Kernel
{
  public:
    /**
     * @param config    machine parameters (validated here).
     * @param flusher   the machine's page-flush path: its cache, or all
     *                  of them on a multiprocessor.  Must outlive the
     *                  kernel; it is not used during construction.
     * @param dirty     dirty-bit alternative to run.
     * @param ref       reference-bit policy to run.
     * @param ref_impl  when set, the machine's own implementation of
     *                  @p ref (the TLB baseline's free hardware bits)
     *                  instead of the standard one.
     */
    Kernel(const sim::MachineConfig& config, cache::PageFlusher& flusher,
           policy::DirtyPolicyKind dirty, policy::RefPolicyKind ref,
           std::unique_ptr<policy::RefPolicy> ref_impl = nullptr);

    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    // ---- Processes and address spaces -----------------------------------

    /** Creates a process with four private global segments. */
    Pid CreateProcess();

    /** Tears down a process: unmaps its regions, frees its pages, then
     *  accounts the context switch away from it. */
    void DestroyProcess(Pid pid);

    /**
     * Declares a region of @p pid's address space.
     * @param base  process virtual address (page aligned).
     * @param bytes region length (page aligned, nonzero).
     * @param kind  what backs the pages.
     */
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind);

    /**
     * Shares memory the SPUR way: points @p pid's segment register
     * @p reg at the same global segment as @p other's @p other_reg, so
     * both processes use one global virtual address for the shared pages
     * (no synonyms possible, [Hill86]).
     */
    void ShareSegment(Pid pid, unsigned reg, Pid other, unsigned other_reg)
    {
        segmap_.ShareSegment(pid, reg, other, other_reg);
    }

    /** The global virtual address a process address resolves to. */
    GlobalAddr ToGlobal(Pid pid, ProcessAddr addr) const
    {
        return segmap_.ToGlobal(pid, addr);
    }

    /** Accounts a context switch (scheduler notification). */
    void OnContextSwitch();

    // ---- Kernel entry points the model checker drives ---------------------

    /** The PTE covering @p gva, or nullptr when none exists yet. */
    const pt::Pte* FindPte(GlobalAddr gva) const
    {
        return table_.Find(gva >> config_.PageShift());
    }

    /**
     * Clears the reference bit of @p gva's (resident) page exactly the
     * way the page daemon's front hand does: through the reference
     * policy (REF flushes every cache), with its cycles charged.
     */
    void ClearRefBit(GlobalAddr gva);

    /** Flushes @p gva's page through the machine's flush path
     *  (tag-checked), charging the flush once per cache visited. */
    void FlushPage(GlobalAddr gva);

    // ---- Shared pieces of the machines' access paths ---------------------

    /** Returns the PTE backing a *hit* line (must exist and be valid).
     *  Inlined into every caller; the failure is out of line. */
    [[gnu::always_inline]] pt::Pte& ResidentPte(GlobalAddr gva)
    {
        pt::Pte* pte = table_.FindMutable(gva >> config_.PageShift());
        if (pte == nullptr || !pte->valid()) {
            PanicHitOnNonResidentPage();
        }
        return *pte;
    }

    /** Applies a DirtyCost to the timing buckets. */
    void ChargeDirty(const policy::DirtyCost& cost)
    {
        timing_.Charge(sim::TimeBucket::kFault, cost.fault_cycles);
        timing_.Charge(sim::TimeBucket::kFlush, cost.flush_cycles);
        timing_.Charge(sim::TimeBucket::kDirtyAux, cost.aux_cycles);
    }

    /**
     * Accounts a block fill a miss of @p type made into @p line: the
     * fetch, the write-back of a dirty victim, and for a write miss the
     * Table 3.3 N_w-miss count and the store itself.  A third of fills
     * write a victim back and a quarter are write fills, so neither
     * outcome is a branch: each selects a count, a charge and the bits
     * the store ORs in.
     */
    void ChargeFill(cache::LineRef line, const cache::Eviction& eviction,
                    AccessType type)
    {
        const bool write = type == AccessType::kWrite;
        events_.Add(sim::Event::kWriteback, eviction.writeback);
        timing_.Charge(sim::TimeBucket::kMissStall,
                       (1 + uint64_t{eviction.writeback}) *
                           block_fetch_cycles_);
        events_.Add(sim::Event::kWriteMissFill, write);
        line.MarkWrittenIf(write);
    }

    // ---- Audit ------------------------------------------------------------

    /** Names the caches the audit checks (all of the machine's virtual
     *  caches; none for the TLB baseline's physical cache). */
    void SetAuditedCaches(std::vector<const cache::VirtualCache*> caches)
    {
        audited_caches_ = std::move(caches);
    }

    /**
     * Runs every invariant pass (check::RunAllPasses) over the
     * machine; several caches additionally arm the cross-cache Berkeley
     * Ownership audit.  core::RunOnce runs it at the end of every cell;
     * tests run it mid-run (at context switches, or every N accesses).
     */
    check::AuditReport Audit() const;

    // ---- State access -----------------------------------------------------

    const sim::MachineConfig& config() const { return config_; }
    sim::EventCounts& events() { return events_; }
    const sim::EventCounts& events() const { return events_; }
    sim::TimingModel& timing() { return timing_; }
    const sim::TimingModel& timing() const { return timing_; }
    const pt::SegmentMap& segments() const { return segmap_; }
    pt::PageTable& page_table() { return table_; }
    const pt::PageTable& page_table() const { return table_; }
    vm::VirtualMemory& memory() { return vm_; }
    const vm::VirtualMemory& memory() const { return vm_; }

  private:
    /** ResidentPte()'s failure: a cache hit on a page the VM reclaimed
     *  without flushing it. */
    [[noreturn, gnu::cold, gnu::noinline]] static void
    PanicHitOnNonResidentPage();

    sim::MachineConfig config_;
    sim::EventCounts events_;
    sim::TimingModel timing_;
    pt::SegmentMap segmap_;
    pt::PageTable table_;
    cache::PageFlusher& flusher_;
    std::unique_ptr<policy::DirtyPolicy> dirty_;
    std::unique_ptr<policy::RefPolicy> ref_;
    vm::VirtualMemory vm_;

    /// Region starts (global vpn) per process, keyed by process base addr.
    std::unordered_map<Pid, std::unordered_map<ProcessAddr, GlobalVpn>>
        process_regions_;

    /// Cached cost of fetching one block from memory.
    Cycles block_fetch_cycles_;

    std::vector<const cache::VirtualCache*> audited_caches_;
};

/**
 * The WorkloadHost face of a Kernel: every lifecycle call is the
 * kernel's, so a machine adds only its access path.  SpurSystem and
 * TlbSystem are KernelHosts over their own kernel; each CPU port of the
 * multiprocessor is one over the shared kernel.
 */
class KernelHost : public workload::WorkloadHost
{
  public:
    /** The kernel this host runs on. */
    virtual Kernel& kernel() = 0;
    virtual const Kernel& kernel() const = 0;

    Pid CreateProcess() final { return kernel().CreateProcess(); }
    void DestroyProcess(Pid pid) final { kernel().DestroyProcess(pid); }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) final
    {
        kernel().MapRegion(pid, base, bytes, kind);
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) final
    {
        kernel().ShareSegment(pid, reg, other, other_reg);
    }
    void OnContextSwitch() final { kernel().OnContextSwitch(); }
    const sim::MachineConfig& config() const final
    {
        return kernel().config();
    }

    const sim::EventCounts& events() const { return kernel().events(); }
    const sim::TimingModel& timing() const { return kernel().timing(); }
    GlobalAddr ToGlobal(Pid pid, ProcessAddr addr) const
    {
        return kernel().ToGlobal(pid, addr);
    }
};

}  // namespace spur::core

#endif  // SPUR_CORE_KERNEL_H_
