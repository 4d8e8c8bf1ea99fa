/**
 * @file
 * The SPUR access path, once for both SPUR machines: one reference
 * through a processor's virtual-address cache, the miss path with
 * in-cache translation, and the write hit.  AccessPath<D, R, C>
 * instantiates it per dirty policy, reference policy and coherence, so
 * the policy logic of policy_ops.h inlines and no reference makes a
 * virtual call.  The coherence is all the machines differ by: none on
 * the uniprocessor (SpurSystem), a snoop-bus port (Berkeley Ownership,
 * bus.h) on each multiprocessor CPU (MpSpurSystem).
 */
// spur:hot-path
#ifndef SPUR_CORE_ACCESS_PATH_H_
#define SPUR_CORE_ACCESS_PATH_H_

#include "src/cache/bus.h"
#include "src/cache/cache.h"
#include "src/cache/flusher.h"
#include "src/common/types.h"
#include "src/core/kernel.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/policy_ops.h"
#include "src/policy/ref_policy.h"
#include "src/pt/pte.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/sim/timing.h"
#include "src/xlate/translator.h"

namespace spur::core {

/** The uniprocessor's coherence: none. */
struct NoCoherence {
    /** With one cache, a page flush visits only it. */
    static cache::VirtualCache& FlushPath(cache::VirtualCache& vcache)
    {
        return vcache;
    }

    void BeforeFill(GlobalAddr, AccessType) const {}

    void BeforeStore(cache::ConstLineRef, GlobalAddr, sim::TimingModel&) const
    {
    }
};

/** One multiprocessor CPU's coherence: its port on the snooping bus. */
struct BusCoherence {
    cache::SnoopBus* bus;
    unsigned cpu;                    ///< This processor's bus port.
    cache::PageFlusher* all_caches;  ///< Every cache in the machine.

    /** A page flush must reach every cache that may hold the page. */
    cache::PageFlusher& FlushPath(cache::VirtualCache&) const
    {
        return *all_caches;
    }

    /** Settles ownership before a fill: a write miss reads with
     *  ownership (peers invalidate), any other miss reads. */
    void BeforeFill(GlobalAddr gva, AccessType type) const
    {
        if (type == AccessType::kWrite) {
            bus->ReadOwned(gva, cpu);
        } else {
            bus->Read(gva, cpu);
        }
    }

    /** Gains exclusive ownership before a store to @p line: one bus
     *  upgrade and one stall cycle, unless this cache owns it alone. */
    void BeforeStore(cache::ConstLineRef line, GlobalAddr gva,
                     sim::TimingModel& timing) const
    {
        if (line.state() != cache::CoherencyState::kOwnedExclusive) {
            bus->Upgrade(gva, cpu);
            timing.Charge(sim::TimeBucket::kMissStall, 1);
        }
    }
};

/** What one multiprocessor CPU's access path runs over. */
template <class Coherence>
struct Cpu {
    Kernel& kernel;  ///< The machine's kernel, shared by every CPU.
    cache::VirtualCache& vcache;
    xlate::Translator& xlate;
    Coherence coherence;
};

/** A uniprocessor's one CPU owns the machine: its cache, the kernel
 *  over that cache, and the translator.  Owning them, not referring to
 *  them, lets the path reach each at a fixed offset from one pointer. */
template <>
struct Cpu<NoCoherence> {
    Cpu(const sim::MachineConfig& config, policy::DirtyPolicyKind dirty,
        policy::RefPolicyKind ref)
        : vcache(config),
          kernel(config, vcache, dirty, ref),
          xlate(vcache, kernel.page_table(), kernel.config())
    {
    }

    cache::VirtualCache vcache;
    Kernel kernel;
    xlate::Translator xlate;
    [[no_unique_address]] NoCoherence coherence;
};

/**
 * The access path under dirty policy D, reference policy R and
 * coherence C.  Every machine charges the same events in the same order
 * through these bodies; only C's hooks differ.
 */
template <policy::DirtyPolicyKind D, policy::RefPolicyKind R, class C>
struct AccessPath {
    /** Executes one reference on @p cpu. */
    static void Access(Cpu<C>& cpu, const MemRef& ref);

    /** The miss path for @p gva, whose miss the caller has counted:
     *  translate, check the reference and dirty bits, settle
     *  coherence, fill. */
    static void Miss(Cpu<C>& cpu, GlobalAddr gva, AccessType type);

    /**
     * A write that hit @p line, whose hit the caller has counted and
     * charged: the policy's check and, off its fast path, its fault
     * handling; then coherence and the store.  Inlined into both the
     * per-reference and the batch path.
     */
    [[gnu::always_inline]] static void WriteHit(Cpu<C>& cpu,
                                                cache::LineRef line,
                                                GlobalAddr gva)
    {
        Kernel& kernel = cpu.kernel;
        // First write to a block that arrived via a read/fetch: this is
        // the N_w-hit population of Table 3.3.
        if (!line.block_dirty()) {
            kernel.events().Add(sim::Event::kWriteHitCleanBlock);
        }
        if (!policy::DirtyOps<D>::WriteHitFastPath(line)) {
            const policy::DirtyCost cost = policy::DirtyOps<D>::OnWriteHit(
                line, gva, kernel.ResidentPte(gva), kernel.events(),
                cpu.coherence.FlushPath(cpu.vcache), kernel.config());
            kernel.ChargeDirty(cost);
            if (cost.line_invalidated) {
                // FLUSH purged the written line inside the fault
                // handler; the store re-executes as a cache miss and
                // refills the block under the page's new protection.
                Miss(cpu, gva, AccessType::kWrite);
                return;
            }
        }
        cpu.coherence.BeforeStore(line, gva, kernel.timing());
        line.MarkWritten();
    }
};

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R, class C>
void
AccessPath<D, R, C>::Access(Cpu<C>& cpu, const MemRef& ref)
{
    Kernel& kernel = cpu.kernel;
    sim::EventCounts& events = kernel.events();
    const GlobalAddr gva = kernel.ToGlobal(ref.pid, ref.addr);
    events.Add(sim::RefEvent(ref.type));

    cache::LineRef line = cpu.vcache.Lookup(gva);
    if (line) {
        kernel.timing().Charge(sim::TimeBucket::kExecute,
                               kernel.config().t_cache_hit);
        if (ref.type != AccessType::kWrite) {
            return;
        }
        WriteHit(cpu, line, gva);
        return;
    }

    events.Add(sim::MissEvent(ref.type));
    Miss(cpu, gva, ref.type);
}

template <policy::DirtyPolicyKind D, policy::RefPolicyKind R, class C>
void
AccessPath<D, R, C>::Miss(Cpu<C>& cpu, GlobalAddr gva, AccessType type)
{
    Kernel& kernel = cpu.kernel;
    sim::EventCounts& events = kernel.events();
    sim::TimingModel& timing = kernel.timing();
    const sim::MachineConfig& config = kernel.config();
    // In-cache translation: find the PTE (possibly faulting the page in).
    xlate::XlateResult xr = cpu.xlate.Translate(gva, events);
    timing.Charge(sim::TimeBucket::kXlate, xr.cycles);
    pt::Pte* pte = xr.pte;
    if (!pte->valid()) {
        pte = &kernel.memory().HandlePageFault(gva);
    }

    // Reference bit: the controller checks R while it has the PTE.
    const policy::RefCost ref_cost =
        policy::RefOps<R>::OnCacheMiss(*pte, events, config);
    timing.Charge(sim::TimeBucket::kFault, ref_cost.fault_cycles);

    // Dirty bit: a write miss checks the dirty state before the fill.
    if (type == AccessType::kWrite) {
        kernel.ChargeDirty(policy::DirtyOps<D>::OnWriteMiss(
            gva, *pte, events, cpu.coherence.FlushPath(cpu.vcache),
            config));
    }

    cpu.coherence.BeforeFill(gva, type);
    // Fill the block, copying PR and the page dirty bit from the PTE into
    // the cache line (Figure 3.2).
    cache::Eviction eviction;
    cache::LineRef line =
        cpu.vcache.Fill(gva, pte->protection(), pte->dirty(), &eviction);
    kernel.ChargeFill(line, eviction, type);
}

}  // namespace spur::core

#endif  // SPUR_CORE_ACCESS_PATH_H_
