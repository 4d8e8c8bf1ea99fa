/**
 * @file
 * A conventional translation lookaside buffer — the mechanism SPUR
 * deliberately does *not* have.
 *
 * The paper's introduction frames the whole problem against TLB systems:
 * "The TLB provides a convenient place to cache the reference and dirty
 * bits... Since the TLB must be accessed on each reference, checking the
 * bits incurs no additional overhead."  This class (with
 * core::TlbSystem) implements that baseline machine so the trade can be
 * measured rather than asserted: free bit maintenance, but translation
 * on every access's critical path.
 *
 * Organization: direct-mapped over the global VPN, a typical late-80s
 * 64-entry configuration (MIPS R2000 had 64 fully-associative entries;
 * direct-mapped keeps the model simple and slightly pessimistic).
 * Entries are (vpn, valid) pairs: PTE *contents* are read live from the
 * page table, so R/D updates through the TLB are write-through, which is
 * what TLBs with hardware-maintained bits effectively did.
 */
#ifndef SPUR_XLATE_TLB_H_
#define SPUR_XLATE_TLB_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace spur::xlate {

/** A direct-mapped TLB over global virtual page numbers. */
class Tlb
{
  public:
    /** @param entries number of slots (power of two). */
    explicit Tlb(uint32_t entries = 64);

    Tlb(const Tlb&) = delete;
    Tlb& operator=(const Tlb&) = delete;

    /** True when @p vpn currently hits. */
    bool Lookup(GlobalVpn vpn);

    /** Installs @p vpn (displacing whatever shares its slot). */
    void Insert(GlobalVpn vpn);

    /** Removes @p vpn if present (page reclaim / remap shootdown). */
    void Invalidate(GlobalVpn vpn);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint32_t NumEntries() const
    {
        return static_cast<uint32_t>(slots_.size());
    }

  private:
    struct Slot {
        GlobalVpn vpn = 0;
        bool valid = false;
    };

    std::vector<Slot> slots_;
    uint32_t mask_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

}  // namespace spur::xlate

#endif  // SPUR_XLATE_TLB_H_
