#include "src/cache/cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__) && defined(__x86_64__)
#include <emmintrin.h>
#endif

#include "src/common/bits.h"

namespace spur::cache {

const char*
ToString(CoherencyState state)
{
    switch (state) {
      case CoherencyState::kInvalid: return "Invalid";
      case CoherencyState::kUnOwned: return "UnOwned";
      case CoherencyState::kOwnedShared: return "OwnedShared";
      case CoherencyState::kOwnedExclusive: return "OwnedExclusive";
    }
    return "?";
}

VirtualCache::VirtualCache(const sim::MachineConfig& config)
    : block_shift_(config.BlockShift()),
      index_bits_(config.IndexBits()),
      index_mask_(config.NumBlocks() - 1),
      page_shift_(config.PageShift()),
      blocks_per_page_(static_cast<uint32_t>(config.BlocksPerPage())),
      tags_(config.NumBlocks(), 0),
      meta_(config.NumBlocks(), 0)
{
}

bool
VirtualCache::InvalidateBlock(GlobalAddr addr)
{
    LineRef line = Lookup(addr);
    if (!line) {
        return false;
    }
    const bool writeback = line.block_dirty();
    line.Invalidate();
    return writeback;
}

namespace {

/** Each byte of a word whose bytes are all 0 or 1, summed. */
inline uint32_t
ByteSum(uint64_t bytes)
{
    return static_cast<uint32_t>((bytes * 0x0101010101010101) >> 56);
}

/**
 * The page flush's scan of the @p slots slots from @p tags / @p metas,
 * whose lines belong to the page when their tag is @p page_tag: counts
 * into @p result and clears the slots it flushes.
 *
 * Which slots a page flush finds valid, its own or dirty is close to a
 * coin flip per slot, so the scan takes no branch on them: each slot
 * adds its 0/1 outcomes to the counts and stores its tag and metadata
 * masked by whether it stays, which rewrites a kept slot unchanged and
 * zeroes a flushed one (an invalid slot is zero already).  On x86-64
 * eight slots go at a time: SSE2 compares the tags two to a register
 * and packs the outcomes to one byte per slot, 0xFF for the page's
 * own, and the eight metadata bytes are one word, so valid, own, dirty
 * and flush are byte masks, the counts byte sums and the stores masked
 * words.  The one-slot loop does the rest (and all of it elsewhere).
 */
template <bool kTagChecked>
void
ScanPage(uint64_t* tags, uint8_t* metas, uint32_t slots, uint64_t page_tag,
         FlushResult* result)
{
    uint32_t flushed = 0;
    uint32_t writebacks = 0;
    uint32_t foreign = 0;
    uint32_t i = 0;
#if defined(__SSE2__) && defined(__x86_64__)
    constexpr uint64_t kLowBits = 0x0101010101010101;
    // Valid is either CS bit (bits 0-1), folded into bit 0 of its byte.
    static_assert(meta::kStateMask == 0x03);
    constexpr int kDirtyShift = std::countr_zero(meta::kBlockDirtyBit);
    const __m128i want = _mm_set1_epi64x(static_cast<int64_t>(page_tag));
    for (; i + 8 <= slots; i += 8) {
        __m128i* const pairs = reinterpret_cast<__m128i*>(tags + i);
        __m128i eq[4];
        for (int j = 0; j < 4; ++j) {
            // A 64-bit compare: both 32-bit halves equal.
            const __m128i halves =
                _mm_cmpeq_epi32(_mm_loadu_si128(pairs + j), want);
            eq[j] = _mm_and_si128(halves, _mm_shuffle_epi32(halves, 0xB1));
        }
        const __m128i twice =
            _mm_packs_epi16(_mm_packs_epi32(eq[0], eq[1]),
                            _mm_packs_epi32(eq[2], eq[3]));
        const auto own = static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_packs_epi16(twice, twice)));
        uint64_t m;
        std::memcpy(&m, metas + i, sizeof m);
        const uint64_t valid = ((m | (m >> 1)) & kLowBits) * 0xFF;
        const uint64_t flush = kTagChecked ? (valid & own) : valid;
        flushed += ByteSum(flush & kLowBits);
        writebacks += ByteSum(flush & (m >> kDirtyShift) & kLowBits);
        if constexpr (!kTagChecked) {
            foreign += ByteSum(flush & ~own & kLowBits);
        }
        m &= ~flush;
        std::memcpy(metas + i, &m, sizeof m);
        // Widen the flush bytes to a 64-bit mask per slot.
        const __m128i bytes = _mm_cvtsi64_si128(static_cast<int64_t>(flush));
        const __m128i words = _mm_unpacklo_epi8(bytes, bytes);
        const __m128i dwords[2] = {_mm_unpacklo_epi16(words, words),
                                   _mm_unpackhi_epi16(words, words)};
        for (int j = 0; j < 4; ++j) {
            const __m128i drop =
                (j % 2 == 0) ? _mm_unpacklo_epi32(dwords[j / 2], dwords[j / 2])
                             : _mm_unpackhi_epi32(dwords[j / 2], dwords[j / 2]);
            _mm_storeu_si128(pairs + j, _mm_andnot_si128(
                                            drop, _mm_loadu_si128(pairs + j)));
        }
    }
#endif
    for (; i < slots; ++i) {
        const uint8_t m = metas[i];
        const uint64_t tag = tags[i];
        const uint32_t valid = (m & meta::kStateMask) != 0 ? 1 : 0;
        const uint32_t own = tag == page_tag ? 1 : 0;
        const uint32_t flush = kTagChecked ? (valid & own) : valid;
        flushed += flush;
        writebacks += flush & ((m & meta::kBlockDirtyBit) != 0 ? 1 : 0);
        if constexpr (!kTagChecked) {
            foreign += flush & (own ^ 1);
        }
        const uint64_t keep = uint64_t{flush} - 1;
        metas[i] = static_cast<uint8_t>(m & keep);
        tags[i] = tag & keep;
    }
    result->slots_examined = slots;
    result->blocks_flushed = flushed;
    result->writebacks = writebacks;
    result->foreign_flushed = foreign;
}

}  // namespace

template <bool kTagChecked>
FlushResult
VirtualCache::FlushPageImpl(GlobalAddr addr)
{
    FlushResult result;
    const GlobalAddr page_base = AlignDown(addr, uint64_t{1} << page_shift_);
    if (blocks_per_page_ > tags_.size()) {
        // A page larger than the whole cache: its blocks alias slots, so
        // walk block addresses individually (the pre-SoA behaviour).
        for (uint32_t i = 0; i < blocks_per_page_; ++i) {
            const GlobalAddr block_addr =
                page_base + (static_cast<GlobalAddr>(i) << block_shift_);
            const uint64_t index = IndexOf(block_addr);
            ++result.slots_examined;
            if ((meta_[index] & meta::kStateMask) == 0) {
                continue;
            }
            const bool belongs = tags_[index] == TagOf(block_addr);
            if (kTagChecked && !belongs) {
                continue;
            }
            if (!belongs) {
                ++result.foreign_flushed;
            }
            ++result.blocks_flushed;
            if ((meta_[index] & meta::kBlockDirtyBit) != 0) {
                ++result.writebacks;
            }
            meta_[index] = 0;
            tags_[index] = 0;
        }
        return result;
    }
    // The page is page-aligned and no larger than the cache, so its
    // blocks occupy one contiguous, non-wrapping run of slots and share a
    // single tag value: the flush is a linear scan of the slots.
    const uint64_t first = IndexOf(page_base);
    ScanPage<kTagChecked>(tags_.data() + first, meta_.data() + first,
                          blocks_per_page_, TagOf(page_base), &result);
    return result;
}

FlushResult
VirtualCache::FlushPageChecked(GlobalAddr addr)
{
    return FlushPageImpl<true>(addr);
}

FlushResult
VirtualCache::FlushPageIndexed(GlobalAddr addr)
{
    return FlushPageImpl<false>(addr);
}

void
VirtualCache::Reset()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(meta_.begin(), meta_.end(), 0);
}

uint64_t
VirtualCache::NumValid() const
{
    uint64_t count = 0;
    for (const uint8_t m : meta_) {
        count += (m & meta::kStateMask) != 0 ? 1 : 0;
    }
    return count;
}

}  // namespace spur::cache
