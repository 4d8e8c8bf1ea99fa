#include "src/vm/region.h"

#include <string>

#include "src/common/log.h"

namespace spur::vm {

void
RegionMap::Add(GlobalVpn start, uint64_t pages, PageKind kind)
{
    if (pages == 0) {
        Fatal("RegionMap: empty region");
    }
    const GlobalVpn end = start + pages;
    // Overlap check against the neighbour below and above.
    auto it = regions_.upper_bound(start);
    if (it != regions_.begin()) {
        auto below = std::prev(it);
        if (below->second.end > start) {
            Fatal("RegionMap: region overlaps an existing one");
        }
    }
    if (it != regions_.end() && it->second.start < end) {
        Fatal("RegionMap: region overlaps an existing one");
    }
    regions_.emplace(start, Region{start, end, kind});
}

Region
RegionMap::Remove(GlobalVpn start)
{
    auto it = regions_.find(start);
    if (it == regions_.end()) {
        Fatal("RegionMap: removing unknown region at page " +
              std::to_string(start));
    }
    const Region region = it->second;
    regions_.erase(it);
    return region;
}

const Region*
RegionMap::Find(GlobalVpn vpn) const
{
    auto it = regions_.upper_bound(vpn);
    if (it == regions_.begin()) {
        return nullptr;
    }
    --it;
    return it->second.Contains(vpn) ? &it->second : nullptr;
}

}  // namespace spur::vm
