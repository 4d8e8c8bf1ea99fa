/**
 * @file
 * Address-space regions, the VM's map of what a global page *is*.
 *
 * Sprite segments map onto these kinds:
 *   kCode   read-only text, demand paged from the file server;
 *   kData   initialized read-write data, demand paged from the file
 *           server, written to swap once dirtied;
 *   kFileCache  pages of files being *read* (Sprite reads files through
 *           the kernel file cache, so they are not writable process
 *           pages and never count as potentially modified);
 *   kHeap   dynamically allocated, zero-filled on first touch;
 *   kStack  zero-filled on first touch.
 */
#ifndef SPUR_VM_REGION_H_
#define SPUR_VM_REGION_H_

#include <cstddef>
#include <cstdint>
#include <map>

#include "src/common/types.h"

namespace spur::vm {

/** What backs a page and whether it may be written. */
enum class PageKind : uint8_t {
    kCode,
    kData,
    kHeap,
    kStack,
    kFileCache,
};

/** True when pages of this kind may be modified. */
constexpr bool
IsWritable(PageKind kind)
{
    return kind != PageKind::kCode && kind != PageKind::kFileCache;
}

/** True when first touch is a zero-fill rather than a file page-in. */
constexpr bool
IsZeroFill(PageKind kind)
{
    return kind == PageKind::kHeap || kind == PageKind::kStack;
}

/** A contiguous run of global pages with one kind. */
struct Region {
    GlobalVpn start = 0;
    GlobalVpn end = 0;  ///< One past the last page.
    PageKind kind = PageKind::kData;

    uint64_t NumPages() const { return end - start; }
    bool Contains(GlobalVpn vpn) const { return vpn >= start && vpn < end; }
};

/** Ordered, non-overlapping registry of live regions. */
class RegionMap
{
  public:
    RegionMap() = default;

    RegionMap(const RegionMap&) = delete;
    RegionMap& operator=(const RegionMap&) = delete;

    /** Registers [start, start+pages); fatal on overlap. */
    void Add(GlobalVpn start, uint64_t pages, PageKind kind);

    /** Removes the region starting at @p start; fatal when absent. */
    Region Remove(GlobalVpn start);

    /** The region containing @p vpn, or nullptr. */
    const Region* Find(GlobalVpn vpn) const;

    /** Number of live regions. */
    size_t NumRegions() const { return regions_.size(); }

  private:
    std::map<GlobalVpn, Region> regions_;  ///< Keyed by start page.
};

}  // namespace spur::vm

#endif  // SPUR_VM_REGION_H_
