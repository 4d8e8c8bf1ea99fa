#include "src/xlate/tlb.h"

#include "src/common/bits.h"
#include "src/common/log.h"

namespace spur::xlate {

Tlb::Tlb(uint32_t entries)
    : slots_(entries), mask_(entries - 1)
{
    if (entries == 0 || !IsPowerOfTwo(entries)) {
        Fatal("Tlb: entry count must be a nonzero power of two");
    }
}

bool
Tlb::Lookup(GlobalVpn vpn)
{
    const Slot& slot = slots_[vpn & mask_];
    if (slot.valid && slot.vpn == vpn) {
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

void
Tlb::Insert(GlobalVpn vpn)
{
    Slot& slot = slots_[vpn & mask_];
    slot.vpn = vpn;
    slot.valid = true;
}

void
Tlb::Invalidate(GlobalVpn vpn)
{
    Slot& slot = slots_[vpn & mask_];
    if (slot.valid && slot.vpn == vpn) {
        slot.valid = false;
    }
}

}  // namespace spur::xlate
