#include "src/pt/page_table.h"

#include <bit>

namespace spur::pt {

uint64_t
PageTable::Home(const std::vector<Slot>& slots, uint64_t index)
{
    // Fibonacci hashing, taking the product's *top* log2(size) bits:
    // they depend on every bit of the index, while its low bits depend
    // only on the index's own low bits.  Table pages at one in-segment
    // offset across many segments differ only in their high index bits
    // (WORKLOAD1's processes lay out every segment alike), so a low-bit
    // hash piles them into one linear-probe run.
    const auto bits = static_cast<unsigned>(std::countr_zero(slots.size()));
    return (index * uint64_t{0x9E3779B97F4A7C15}) >> (64 - bits);
}

PageTable::Slot&
PageTable::Probe(std::vector<Slot>& slots, uint64_t index)
{
    const uint64_t mask = slots.size() - 1;
    uint64_t i = Home(slots, index);
    while (slots[i].page != nullptr && slots[i].index != index) {
        i = (i + 1) & mask;
    }
    return slots[i];
}

void
PageTable::Grow()
{
    std::vector<Slot> grown(slots_.size() * 2);
    for (const Slot& slot : slots_) {
        if (slot.page != nullptr) {
            Probe(grown, slot.index) = slot;
        }
    }
    slots_ = std::move(grown);
}

const Pte*
PageTable::FindSlow(GlobalVpn vpn) const
{
    const uint64_t index = SecondLevelIndex(vpn);
    // Probe() only mutates through insertion; a const find never inserts
    // (empty slots have page == nullptr and terminate the walk).
    const Slot& slot =
        Probe(const_cast<std::vector<Slot>&>(slots_), index);
    if (slot.page == nullptr) {
        return nullptr;
    }
    recent_[RecentSlot(index)] = Recent{index, slot.page};
    return &(*slot.page)[vpn % kPtesPerPage];
}

Pte&
PageTable::EnsureSlow(GlobalVpn vpn)
{
    const uint64_t index = SecondLevelIndex(vpn);
    Slot* slot = &Probe(slots_, index);
    if (slot->page == nullptr) {
        if ((count_ + 1) * 2 > slots_.size()) {
            Grow();
            slot = &Probe(slots_, index);
        }
        owned_.push_back(std::make_unique<TablePage>());
        slot->index = index;
        slot->page = owned_.back().get();
        ++count_;
    }
    recent_[RecentSlot(index)] = Recent{index, slot->page};
    return (*slot->page)[vpn % kPtesPerPage];
}

void
PageTable::ForEachPte(
    const std::function<void(GlobalVpn, const Pte&)>& fn) const
{
    for (const Slot& slot : slots_) {
        if (slot.page == nullptr) {
            continue;
        }
        const GlobalVpn base = slot.index * kPtesPerPage;
        for (uint64_t i = 0; i < kPtesPerPage; ++i) {
            fn(base + i, (*slot.page)[i]);
        }
    }
}

size_t
PageTable::ProbeLength(GlobalVpn vpn) const
{
    const uint64_t index = SecondLevelIndex(vpn);
    const Slot& slot =
        Probe(const_cast<std::vector<Slot>&>(slots_), index);
    const uint64_t at = static_cast<uint64_t>(&slot - slots_.data());
    return ((at - Home(slots_, index)) & (slots_.size() - 1)) + 1;
}

size_t
PageTable::NumValidPtes() const
{
    size_t valid = 0;
    ForEachPte([&valid](GlobalVpn, const Pte& pte) {
        if (pte.valid()) {
            ++valid;
        }
    });
    return valid;
}

}  // namespace spur::pt
