/**
 * @file
 * Compile-time policy operation tables: the dirty-bit and reference-bit
 * policy semantics of dirty_policy.h / ref_policy.h as static methods of
 * `DirtyOps<Kind>` / `RefOps<Kind>` templates.
 *
 * These are the single source of truth for policy behaviour.  The
 * virtual `DirtyPolicy`/`RefPolicy` classes (used by the cold paths, the
 * VM daemon, and the multiprocessor system) are thin wrappers over these
 * methods, and the devirtualized `SpurSystem` hot path instantiates them
 * directly per (dirty, ref) run configuration — so both paths execute
 * byte-for-byte identical event counting and cycle charging.
 */
// spur:hot-path
#ifndef SPUR_POLICY_POLICY_OPS_H_
#define SPUR_POLICY_POLICY_OPS_H_

#include "src/cache/cache.h"
#include "src/cache/flusher.h"
#include "src/common/log.h"
#include "src/common/types.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/pt/pte.h"
#include "src/sim/config.h"
#include "src/sim/events.h"

namespace spur::policy {

namespace detail {

/**
 * Records a necessary dirty fault in @p events, classifying the zero-fill
 * subset (Section 3.2 excludes those as non-intrinsic) and consuming the
 * page's zero-fill marker.
 */
inline void
CountNecessaryFault(pt::Pte& pte, sim::EventCounts& events)
{
    events.Add(sim::Event::kDirtyFault);
    if (pte.zfod_clean()) {
        events.Add(sim::Event::kDirtyFaultZfod);
        pte.set_zfod_clean(false);
    }
}

}  // namespace detail

/**
 * Each `DirtyOps<K>` states, besides its hooks, `kSettledWrite`: the
 * metadata bytes on which a write hit changes nothing — the line is
 * already marked written (cache::meta::kWritten) and `WriteHitFastPath`
 * holds.  The batch loop keeps a write hit on such a line on its fast
 * path without calling any hook, so the pattern must equal that
 * conjunction on every byte
 * (`DirtyOpsTest.SettledWritePatternMatchesTheFastPathOnEveryByte`).
 */
template <DirtyPolicyKind kKind>
struct DirtyOps;

// ---------------------------------------------------------------------------
// MIN: the oracle lower bound.  Only the intrinsic necessary faults are
// charged; dirty state is tracked with zero checking overhead.
// ---------------------------------------------------------------------------
template <>
struct DirtyOps<DirtyPolicyKind::kMin> {
    static constexpr cache::meta::Pattern kSettledWrite =
        cache::meta::kWritten.WithPageDirty();

    static bool WriteHitFastPath(cache::ConstLineRef line)
    {
        return line.page_dirty();
    }

    static Protection ResidentProtection(bool writable)
    {
        return writable ? Protection::kReadWrite : Protection::kReadOnly;
    }

    static DirtyCost OnWriteHit(cache::LineRef line, GlobalAddr addr,
                                pt::Pte& pte, sim::EventCounts& events,
                                cache::PageFlusher& flusher,
                                const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        if (line.prot() != Protection::kReadWrite) {
            Panic("MIN: write to a read-only page");
        }
        DirtyCost cost;
        if (!line.page_dirty()) {
            if (!pte.dirty()) {
                detail::CountNecessaryFault(pte, events);
                pte.set_dirty(true);
                cost.fault_cycles = config.t_fault;
            }
            line.set_page_dirty(true);  // Oracle refresh: free.
        }
        return cost;
    }

    static DirtyCost OnWriteMiss(GlobalAddr addr, pt::Pte& pte,
                                 sim::EventCounts& events,
                                 cache::PageFlusher& flusher,
                                 const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        DirtyCost cost;
        if (!pte.dirty()) {
            detail::CountNecessaryFault(pte, events);
            pte.set_dirty(true);
            cost.fault_cycles = config.t_fault;
        }
        return cost;
    }

    static bool IsPageDirty(const pt::Pte& pte) { return pte.dirty(); }
};

// ---------------------------------------------------------------------------
// FAULT: emulate dirty bits with protection.  Writable clean pages are
// mapped read-only; the first write faults, the handler sets the software
// dirty bit and upgrades the PTE to read-write.  Blocks cached while the
// page was read-only keep their stale protection, so writes to them fault
// too — the *excess faults* of Figure 3.1.
//
// FLUSH is FAULT plus a page flush on every necessary fault (no stale
// read-only blocks can survive, so no excess faults), expressed here as
// the kFlushOnFault compile-time variant.
// ---------------------------------------------------------------------------
template <bool kFlushOnFault>
struct FaultFamilyOps {
    static constexpr cache::meta::Pattern kSettledWrite =
        cache::meta::kWritten.WithProt(Protection::kReadWrite);

    static bool WriteHitFastPath(cache::ConstLineRef line)
    {
        return line.prot() == Protection::kReadWrite;
    }

    static Protection ResidentProtection(bool writable)
    {
        // The emulation's whole trick: writable pages start read-only.
        (void)writable;
        return Protection::kReadOnly;
    }

    static DirtyCost OnWriteHit(cache::LineRef line, GlobalAddr addr,
                                pt::Pte& pte, sim::EventCounts& events,
                                cache::PageFlusher& flusher,
                                const sim::MachineConfig& config)
    {
        DirtyCost cost;
        if (line.prot() == Protection::kReadWrite) {
            return cost;  // Fast path: no check beyond the normal one.
        }
        if (!pte.writable_intent()) {
            Panic("FAULT: write to a genuinely read-only page");
        }
        cost.fault_cycles = config.t_fault;
        if (!pte.soft_dirty()) {
            // Necessary fault: really the first write to the page.
            detail::CountNecessaryFault(pte, events);
            pte.set_soft_dirty(true);
            pte.set_protection(Protection::kReadWrite);
            if constexpr (kFlushOnFault) {
                FlushPage(addr, flusher, config, &cost);
                // The written line itself was flushed: the access must
                // re-execute as a miss (and will refill with read-write
                // protection).
                cost.line_invalidated = true;
            } else {
                // The handler refreshes the single faulting block's
                // protection so the retried write proceeds (equivalent to
                // flushing that one block and refilling it; the refill is
                // inside the 1000-cycle handler estimate).
                line.set_prot(Protection::kReadWrite);
            }
        } else {
            // Excess fault: the PTE is already read-write; only this
            // block's cached protection is stale.
            events.Add(sim::Event::kExcessFault);
            line.set_prot(Protection::kReadWrite);
        }
        return cost;
    }

    static DirtyCost OnWriteMiss(GlobalAddr addr, pt::Pte& pte,
                                 sim::EventCounts& events,
                                 cache::PageFlusher& flusher,
                                 const sim::MachineConfig& config)
    {
        DirtyCost cost;
        if (pte.protection() == Protection::kReadWrite) {
            return cost;
        }
        if (!pte.writable_intent()) {
            Panic("FAULT: write miss on a genuinely read-only page");
        }
        // Write misses always translate first, so the fault is detected on
        // the PTE itself and is always a necessary fault.
        detail::CountNecessaryFault(pte, events);
        pte.set_soft_dirty(true);
        pte.set_protection(Protection::kReadWrite);
        cost.fault_cycles = config.t_fault;
        if constexpr (kFlushOnFault) {
            // Other blocks of this page may be cached with stale
            // protection.
            FlushPage(addr, flusher, config, &cost);
        }
        return cost;
    }

    static bool IsPageDirty(const pt::Pte& pte) { return pte.soft_dirty(); }

  private:
    static void FlushPage(GlobalAddr addr, cache::PageFlusher& flusher,
                          const sim::MachineConfig& config, DirtyCost* cost)
    {
        flusher.FlushPageChecked(addr);
        // The paper prices the tag-checked flush at a flat ~500 cycles
        // (128 slots, ~10% needing writeback); we charge the flat cost
        // per cache the flush must visit (all of them on a
        // multiprocessor) and let the flushed blocks' re-fetch misses
        // surface naturally.
        cost->flush_cycles = config.t_flush_page * flusher.NumFlushTargets();
    }
};

template <>
struct DirtyOps<DirtyPolicyKind::kFault> : FaultFamilyOps<false> {
};

template <>
struct DirtyOps<DirtyPolicyKind::kFlush> : FaultFamilyOps<true> {
};

// ---------------------------------------------------------------------------
// SPUR: an explicit hardware dirty bit, cached per block.  A write that
// finds the cached page-dirty bit clear checks the PTE: if the PTE is also
// clean this is the first write (fault); if not, the cached copy is merely
// stale and a 25-cycle dirty-bit miss refreshes it.
// ---------------------------------------------------------------------------
template <>
struct DirtyOps<DirtyPolicyKind::kSpur> {
    static constexpr cache::meta::Pattern kSettledWrite =
        cache::meta::kWritten.WithProt(Protection::kReadWrite)
            .WithPageDirty();

    static bool WriteHitFastPath(cache::ConstLineRef line)
    {
        return line.prot() == Protection::kReadWrite && line.page_dirty();
    }

    static Protection ResidentProtection(bool writable)
    {
        return writable ? Protection::kReadWrite : Protection::kReadOnly;
    }

    static DirtyCost OnWriteHit(cache::LineRef line, GlobalAddr addr,
                                pt::Pte& pte, sim::EventCounts& events,
                                cache::PageFlusher& flusher,
                                const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        if (line.prot() != Protection::kReadWrite) {
            Panic("SPUR: write to a read-only page");
        }
        DirtyCost cost;
        if (line.page_dirty()) {
            return cost;  // Common case: proceed without delay.
        }
        if (pte.dirty()) {
            // Stale cached copy: refresh via a dirty-bit miss.
            events.Add(sim::Event::kDirtyBitMiss);
            cost.aux_cycles = config.t_dirty_miss;
        } else {
            // First write to the page: fault to software, then refresh
            // the cached copy (the fault is followed by the same forced
            // miss, hence t_ds + t_dm in the paper's O(SPUR)).
            detail::CountNecessaryFault(pte, events);
            pte.set_dirty(true);
            cost.fault_cycles = config.t_fault;
            cost.aux_cycles = config.t_dirty_miss;
        }
        line.set_page_dirty(true);
        return cost;
    }

    static DirtyCost OnWriteMiss(GlobalAddr addr, pt::Pte& pte,
                                 sim::EventCounts& events,
                                 cache::PageFlusher& flusher,
                                 const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        DirtyCost cost;
        if (!pte.dirty()) {
            detail::CountNecessaryFault(pte, events);
            pte.set_dirty(true);
            cost.fault_cycles = config.t_fault;
        }
        return cost;
    }

    static bool IsPageDirty(const pt::Pte& pte) { return pte.dirty(); }
};

// ---------------------------------------------------------------------------
// WRITE: Sun-3 style.  The PTE dirty bit is checked on the first write to
// each cache *block*: free on write misses (the PTE is already in hand for
// translation), t_dc on write hits to clean blocks.  Never any excess
// faults, but the check rate is the block modification rate.
//
// WRITE-HW is the Sun-3's real mechanism: the hardware *updates* the
// dirty bit itself on the first write — the per-block check cost remains
// but no fault is ever taken (the kHardwareUpdate variant).
// ---------------------------------------------------------------------------
template <bool kHardwareUpdate>
struct WriteFamilyOps {
    static constexpr cache::meta::Pattern kSettledWrite = cache::meta::kWritten;

    static bool WriteHitFastPath(cache::ConstLineRef line)
    {
        return line.block_dirty();
    }

    static Protection ResidentProtection(bool writable)
    {
        return writable ? Protection::kReadWrite : Protection::kReadOnly;
    }

    static DirtyCost OnWriteHit(cache::LineRef line, GlobalAddr addr,
                                pt::Pte& pte, sim::EventCounts& events,
                                cache::PageFlusher& flusher,
                                const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        if (line.prot() != Protection::kReadWrite) {
            Panic(kHardwareUpdate ? "WRITE-HW: write to a read-only page"
                                  : "WRITE: write to a read-only page");
        }
        DirtyCost cost;
        if (line.block_dirty()) {
            return cost;  // Not the first write to this block.
        }
        events.Add(sim::Event::kDirtyCheck);
        cost.aux_cycles = config.t_dirty_check;
        if (!pte.dirty()) {
            detail::CountNecessaryFault(pte, events);
            pte.set_dirty(true);
            if constexpr (!kHardwareUpdate) {
                cost.fault_cycles = config.t_fault;
            }
            // WRITE-HW: the hardware sets the bit silently; the
            // clean-to-dirty transition is recorded for the Table 3.3
            // bookkeeping but costs no fault.
        }
        return cost;
    }

    static DirtyCost OnWriteMiss(GlobalAddr addr, pt::Pte& pte,
                                 sim::EventCounts& events,
                                 cache::PageFlusher& flusher,
                                 const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        DirtyCost cost;
        // The controller examined the PTE during translation anyway, so
        // this check is free.
        if (!pte.dirty()) {
            detail::CountNecessaryFault(pte, events);
            pte.set_dirty(true);
            if constexpr (!kHardwareUpdate) {
                cost.fault_cycles = config.t_fault;
            }
        }
        return cost;
    }

    static bool IsPageDirty(const pt::Pte& pte) { return pte.dirty(); }
};

template <>
struct DirtyOps<DirtyPolicyKind::kWrite> : WriteFamilyOps<false> {
};

template <>
struct DirtyOps<DirtyPolicyKind::kWriteHw> : WriteFamilyOps<true> {
};

// ---------------------------------------------------------------------------
// SPUR-PROT: the generalized SPUR scheme of Section 3.1 applied to the
// protection field.  Writable clean pages are mapped read-only (like
// FAULT), but a write that hits a stale read-only cached copy checks the
// PTE first: if the PTE is already read-write the hardware refreshes the
// cached copy with a "protection bit miss" (cost t_dm) instead of
// faulting.  Saves the extra cache-tag bit; performance is identical to
// SPUR's, which the test suite verifies property-style.
// ---------------------------------------------------------------------------
template <>
struct DirtyOps<DirtyPolicyKind::kSpurProt> {
    static constexpr cache::meta::Pattern kSettledWrite =
        cache::meta::kWritten.WithProt(Protection::kReadWrite);

    static bool WriteHitFastPath(cache::ConstLineRef line)
    {
        return line.prot() == Protection::kReadWrite;
    }

    static Protection ResidentProtection(bool writable)
    {
        (void)writable;
        return Protection::kReadOnly;  // Clean writable pages start RO.
    }

    static DirtyCost OnWriteHit(cache::LineRef line, GlobalAddr addr,
                                pt::Pte& pte, sim::EventCounts& events,
                                cache::PageFlusher& flusher,
                                const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        DirtyCost cost;
        if (line.prot() == Protection::kReadWrite) {
            return cost;
        }
        if (!pte.writable_intent()) {
            Panic("SPUR-PROT: write to a genuinely read-only page");
        }
        if (pte.protection() == Protection::kReadWrite) {
            // Stale cached protection: protection bit miss.
            events.Add(sim::Event::kDirtyBitMiss);
            cost.aux_cycles = config.t_dirty_miss;
        } else {
            // First write to the page: fault, then the forced refresh.
            detail::CountNecessaryFault(pte, events);
            pte.set_soft_dirty(true);
            pte.set_protection(Protection::kReadWrite);
            cost.fault_cycles = config.t_fault;
            cost.aux_cycles = config.t_dirty_miss;
        }
        line.set_prot(Protection::kReadWrite);
        return cost;
    }

    static DirtyCost OnWriteMiss(GlobalAddr addr, pt::Pte& pte,
                                 sim::EventCounts& events,
                                 cache::PageFlusher& flusher,
                                 const sim::MachineConfig& config)
    {
        (void)addr;
        (void)flusher;
        DirtyCost cost;
        if (pte.protection() != Protection::kReadWrite) {
            if (!pte.writable_intent()) {
                Panic("SPUR-PROT: write miss on a read-only page");
            }
            detail::CountNecessaryFault(pte, events);
            pte.set_soft_dirty(true);
            pte.set_protection(Protection::kReadWrite);
            cost.fault_cycles = config.t_fault;
        }
        return cost;
    }

    static bool IsPageDirty(const pt::Pte& pte) { return pte.soft_dirty(); }
};

// ===========================================================================
// Reference-bit policy operations (Section 4).
// ===========================================================================

template <RefPolicyKind kKind>
struct RefOps;

// ---------------------------------------------------------------------------
// MISS: the miss-bit approximation SPUR implements.  REF derives from it
// (same miss handling, plus flush-on-clear), expressed as the
// kFlushOnClear variant.
// ---------------------------------------------------------------------------
template <bool kFlushOnClear>
struct MissFamilyRefOps {
    static RefCost OnCacheMiss(pt::Pte& pte, sim::EventCounts& events,
                               const sim::MachineConfig& config)
    {
        RefCost cost;
        if (!pte.referenced()) {
            events.Add(sim::Event::kRefFault);
            pte.set_referenced(true);
            cost.fault_cycles = config.t_fault;
        }
        return cost;
    }

    static bool ReadRefBit(const pt::Pte& pte) { return pte.referenced(); }

    static RefCost ClearRefBit(pt::Pte& pte, GlobalAddr page_addr,
                               sim::EventCounts& events,
                               cache::PageFlusher& flusher,
                               const sim::MachineConfig& config)
    {
        RefCost cost;
        events.Add(sim::Event::kRefClear);
        pte.set_referenced(false);
        cost.kernel_cycles = config.t_ref_clear;
        if constexpr (kFlushOnClear) {
            // Flush the page so any further use must miss and re-set the
            // bit.  The flushed blocks' re-fetch misses then surface
            // naturally in the simulation, which is the "disrupts the
            // cache" effect the paper describes.
            events.Add(sim::Event::kRefClearFlush);
            flusher.FlushPageChecked(page_addr);
            // On a multiprocessor every cache must be visited.
            cost.flush_cycles =
                config.t_flush_page * flusher.NumFlushTargets();
        } else {
            (void)page_addr;
            (void)flusher;
        }
        return cost;
    }
};

template <>
struct RefOps<RefPolicyKind::kMiss> : MissFamilyRefOps<false> {
};

template <>
struct RefOps<RefPolicyKind::kRef> : MissFamilyRefOps<true> {
};

// ---------------------------------------------------------------------------
// NOREF: no reference information at all.
// ---------------------------------------------------------------------------
template <>
struct RefOps<RefPolicyKind::kNoRef> {
    static RefCost OnCacheMiss(pt::Pte& pte, sim::EventCounts& events,
                               const sim::MachineConfig& config)
    {
        // The hardware bit is left permanently set (the VM sets it at
        // page-in), so no reference fault can occur and nothing is spent.
        (void)pte;
        (void)events;
        (void)config;
        return RefCost{};
    }

    static bool ReadRefBit(const pt::Pte& pte)
    {
        (void)pte;
        return false;  // The machine-dependent read always says "unused".
    }

    static RefCost ClearRefBit(pt::Pte& pte, GlobalAddr page_addr,
                               sim::EventCounts& events,
                               cache::PageFlusher& flusher,
                               const sim::MachineConfig& config)
    {
        (void)pte;
        (void)page_addr;
        (void)events;
        (void)flusher;
        (void)config;
        return RefCost{};  // Clearing has no effect and costs nothing.
    }
};

}  // namespace spur::policy

#endif  // SPUR_POLICY_POLICY_OPS_H_
