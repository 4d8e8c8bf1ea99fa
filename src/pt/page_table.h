/**
 * @file
 * SPUR's two-level page table over the global virtual address space.
 *
 * The *first-level* PTE for global virtual page `vpn` lives at a fixed
 * global virtual address computed by shift-and-concatenate hardware:
 * `PteBase + vpn * 4`.  First-level PTE pages are ordinary pageable
 * memory and their blocks compete for cache space ("in-cache translation",
 * [Wood86]).  The *second-level* page tables, which map the first-level
 * PTE pages, are wired down at well-known physical addresses, so a
 * second-level access always goes straight to memory and cannot fault.
 *
 * We store PTE contents authoritatively here; the cache models only which
 * PTE *blocks* are resident (for timing), since on a coherent uniprocessor
 * the cached PTE data can never be stale.  What can go stale are the
 * copies of PR / page-dirty bits held in cache *tags*, which is the whole
 * subject of the paper and is modelled in the cache module.
 */
#ifndef SPUR_PT_PAGE_TABLE_H_
#define SPUR_PT_PAGE_TABLE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/pt/pte.h"

namespace spur::pt {

/** PTEs per first-level page-table page (4 KB / 4 B). */
inline constexpr uint64_t kPtesPerPage = 1024;

/**
 * Global segment number housing the linear first-level PTE array.  Chosen
 * far above anything the segment allocator hands out, so PTE addresses
 * never collide with user segments.
 */
inline constexpr uint64_t kPteSegment = uint64_t{1} << 20;

/** Base global virtual address of the first-level PTE array. */
inline constexpr GlobalAddr kPteBase = kPteSegment << 30;

/** The global page table (one per machine; shared by all processes). */
class PageTable
{
  public:
    PageTable() = default;

    PageTable(const PageTable&) = delete;
    PageTable& operator=(const PageTable&) = delete;

    /**
     * Returns the PTE for @p vpn, or nullptr when no first-level table
     * page covers it yet (the OS has never mapped anything nearby).
     */
    const Pte* Find(GlobalVpn vpn) const
    {
        const uint64_t index = SecondLevelIndex(vpn);
        const Recent& recent = recent_[RecentSlot(index)];
        if (recent.index == index) {
            return &(*recent.page)[vpn % kPtesPerPage];
        }
        return FindSlow(vpn);
    }

    /** Mutable variant of Find(). */
    Pte* FindMutable(GlobalVpn vpn)
    {
        return const_cast<Pte*>(std::as_const(*this).Find(vpn));
    }

    /** Returns the PTE for @p vpn, creating its table page on demand. */
    Pte& Ensure(GlobalVpn vpn)
    {
        const uint64_t index = SecondLevelIndex(vpn);
        const Recent& recent = recent_[RecentSlot(index)];
        if (recent.index == index) {
            return (*recent.page)[vpn % kPtesPerPage];
        }
        return EnsureSlow(vpn);
    }

    /** Global virtual address of the first-level PTE for @p vpn
     *  (the shift-and-concatenate circuit). */
    static GlobalAddr PteVa(GlobalVpn vpn) { return kPteBase + vpn * 4; }

    /** True when @p addr lies inside the first-level PTE array. */
    static bool IsPteAddr(GlobalAddr addr) { return addr >= kPteBase; }

    /** Inverse of PteVa() (valid only for PTE addresses). */
    static GlobalVpn VpnOfPteVa(GlobalAddr addr)
    {
        return (addr - kPteBase) / 4;
    }

    /** Index of the second-level PTE consulted for @p vpn (the page of
     *  first-level PTEs it lives in). */
    static uint64_t SecondLevelIndex(GlobalVpn vpn)
    {
        return vpn / kPtesPerPage;
    }

    /** Number of first-level page-table pages materialized so far
     *  (these occupy wired kernel frames in the prototype's accounting). */
    size_t NumTablePages() const { return count_; }

    /**
     * Visits every materialized PTE (valid or not) as (vpn, pte).  The
     * invariant-audit passes (src/check/) walk the table through this;
     * iteration order is unspecified.
     */
    void ForEachPte(
        const std::function<void(GlobalVpn, const Pte&)>& fn) const;

    /**
     * Slots the second-level probe examines for @p vpn, counting the
     * match or the empty slot that ends the walk (1 = its home slot).
     * A diagnostic of the hash's spread; bypasses the recent-page
     * table.
     */
    size_t ProbeLength(GlobalVpn vpn) const;

    /** Entries of the recent-page table (a power of 2). */
    static constexpr size_t kRecentEntries = 64;

    /**
     * The recent-page entry second-level index @p index maps to: the
     * top bits of the probe's Fibonacci product.  Public so tests can
     * pick indices that share an entry.
     */
    static size_t RecentSlot(uint64_t index)
    {
        return static_cast<size_t>(
            (index * uint64_t{0x9E3779B97F4A7C15}) >>
            (64 - std::countr_zero(kRecentEntries)));
    }

  private:
    using TablePage = std::array<Pte, kPtesPerPage>;

    /**
     * One open-addressing slot of the second-level index.  Empty slots
     * have page == nullptr (any index value); the table never deletes.
     */
    struct Slot {
        uint64_t index = 0;
        TablePage* page = nullptr;
    };

    /**
     * One entry of the recent-page table: a table page and its
     * second-level index.  Empty entries hold an index no vpn below
     * 2^60 reaches.
     */
    struct Recent {
        uint64_t index = ~uint64_t{0};
        TablePage* page = nullptr;
    };

    /** Table lookup behind the recent-page table (installs a found page
     *  there; a missing page installs nothing). */
    const Pte* FindSlow(GlobalVpn vpn) const;

    /** Table lookup/creation behind the recent-page table. */
    Pte& EnsureSlow(GlobalVpn vpn);

    /** Position @p index hashes to in @p slots (its home slot). */
    static uint64_t Home(const std::vector<Slot>& slots, uint64_t index);

    /** Slot for @p index in @p slots (match or first empty). */
    static Slot& Probe(std::vector<Slot>& slots, uint64_t index);

    /** Doubles the slot array and re-inserts every page. */
    void Grow();

    // Second-level table: a flat power-of-2 open-addressing map from
    // second-level index to table page.  The simulator walks it on every
    // cache miss (in-cache translation), so probes must stay a single
    // cache line in the common case — a chained std::unordered_map costs
    // a hash-bucket pointer chase per miss.  Table pages are owned
    // separately and never move or die until the PageTable does.
    std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
    std::vector<std::unique_ptr<TablePage>> owned_;
    size_t count_ = 0;

    static constexpr size_t kInitialSlots = 64;

    // Direct-mapped table of recently used table pages in front of the
    // probe, indexed by the top bits of the same Fibonacci product.
    // Misses cycle through a few dozen table pages in interleaved
    // segments (WORKLOAD1: code, heap and stack of each process), which
    // a single most-recent entry caught on only 45% of the lookups of a
    // 4M-reference WORKLOAD1 run and this table catches on 99.9%
    // (DESIGN.md §15).  Table pages never move or die, so its pointers
    // survive Grow().
    mutable std::array<Recent, kRecentEntries> recent_{};
};

}  // namespace spur::pt

#endif  // SPUR_PT_PAGE_TABLE_H_
