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
#include <cstdint>
#include <functional>
#include <memory>
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
        if (index == mru_index_) {
            return &(*mru_page_)[vpn % kPtesPerPage];
        }
        return FindSlow(vpn);
    }

    /** Mutable variant of Find(). */
    Pte* FindMutable(GlobalVpn vpn)
    {
        const uint64_t index = SecondLevelIndex(vpn);
        if (index == mru_index_) {
            return &(*mru_page_)[vpn % kPtesPerPage];
        }
        return const_cast<Pte*>(FindSlow(vpn));
    }

    /** Returns the PTE for @p vpn, creating its table page on demand. */
    Pte& Ensure(GlobalVpn vpn)
    {
        const uint64_t index = SecondLevelIndex(vpn);
        if (index == mru_index_) {
            return (*mru_page_)[vpn % kPtesPerPage];
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

    /** Number of *valid* (resident) PTEs across all table pages. */
    size_t NumValidPtes() const;

    /**
     * Slots the second-level probe examines for @p vpn, counting the
     * match or the empty slot that ends the walk (1 = its home slot).
     * A diagnostic of the hash's spread; bypasses the MRU entry.
     */
    size_t ProbeLength(GlobalVpn vpn) const;

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

    /** Table lookup behind the MRU fast path (updates the MRU slot on a
     *  hit). */
    const Pte* FindSlow(GlobalVpn vpn) const;

    /** Table lookup/creation behind the MRU fast path. */
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

    // One-entry MRU cache over the slot table: cache misses cluster
    // within a first-level table page (1024 vpns), so most
    // Ensure()/Find() calls skip even the flat probe.  The sentinel
    // index is unreachable (it would need a vpn >= 2^60).
    mutable uint64_t mru_index_ = ~uint64_t{0};
    mutable TablePage* mru_page_ = nullptr;
};

}  // namespace spur::pt

#endif  // SPUR_PT_PAGE_TABLE_H_
