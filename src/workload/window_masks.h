/**
 * @file
 * The byte classes of a 64-byte window of SPUR-TRACE/1 op bytes, from
 * which the op decoder's access-run classifier (AccessRunEnds in
 * op_decoder.h, DESIGN.md §19) finds a run.  Private to src/workload:
 * op_decoder.h and the trace tests include it.
 *
 * Two builders here give the same masks.  WindowMasksSse2 uses 16-byte
 * compares and movemask, after simdjson's stage 1 (Langdale and Lemire,
 * arXiv:1902.08318); SSE2 is part of the x86-64 baseline, so every
 * x86-64 build takes it with no -march flag.  WindowMasksSwar uses
 * 8-byte word arithmetic and is the path everywhere else; on x86 the
 * tests run it as the SSE2 builder's oracle, and as the oracle of the
 * third builder, the AVX-512 replay kernel's WindowMasksAvx512
 * (replay_avx512.cc), which only that kernel runs.
 */
#ifndef SPUR_WORKLOAD_WINDOW_MASKS_H_
#define SPUR_WORKLOAD_WINDOW_MASKS_H_

#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace spur::workload {

/** Bit i of each mask classifies byte i of a 64-byte window. */
struct WindowMasks {
    uint64_t stops = 0;   ///< Bytes below 0x80: opcodes and varint ends.
    uint64_t access = 0;  ///< The access opcodes 6-8.
    uint64_t zeros = 0;   ///< Bytes of 0x00.

    bool operator==(const WindowMasks&) const = default;
};

/**
 * Gathers the high bit of each byte of @p bits (no other bit may be
 * set) into the low byte: bit i of the result is byte i's high bit.
 * The partial products of the multiply never collide, so nothing
 * carries.
 */
[[gnu::always_inline]] inline uint64_t
GatherHighBits(uint64_t bits)
{
    return (bits * 0x0002040810204081) >> 56;
}

/**
 * The portable builder: per 8-byte word, three lane masks and three
 * multiply gathers.  Assumes a little-endian host (byte i of a word is
 * bits 8i..8i+7), which trace.cc static_asserts.
 */
[[gnu::always_inline]] inline WindowMasks
WindowMasksSwar(const char* p)
{
    constexpr uint64_t kHighBits = 0x8080808080808080;
    constexpr uint64_t kLowBits = ~kHighBits;
    WindowMasks masks;
    for (unsigned k = 0; k < 8; ++k) {
        uint64_t word;
        std::memcpy(&word, p + 8 * k, sizeof(word));
        // On the 7-bit lanes, adding 0x7a carries into a lane's high bit
        // from 6 up and adding 0x77 from 9 up; adding 0x7f from 1 up.
        // ANDing with the stops drops the bytes of 0x80 and more.
        const uint64_t low = word & kLowBits;
        const uint64_t stop = ~word & kHighBits;
        const uint64_t op = (low + 0x7a7a7a7a7a7a7a7a) &
                            ~(low + 0x7777777777777777) & stop;
        const uint64_t zero = ~(low + kLowBits) & stop;
        masks.stops |= GatherHighBits(stop) << (8 * k);
        masks.access |= GatherHighBits(op) << (8 * k);
        masks.zeros |= GatherHighBits(zero) << (8 * k);
    }
    return masks;
}

#if defined(__SSE2__)
/**
 * The SSE2 builder: per 16-byte lane, a byte compare for each class
 * and a movemask of it (the stops are the movemask of the bytes
 * themselves, inverted).
 */
[[gnu::always_inline]] inline WindowMasks
WindowMasksSse2(const char* p)
{
    const __m128i six = _mm_set1_epi8(6);
    const __m128i two = _mm_set1_epi8(2);
    const __m128i zero = _mm_setzero_si128();
    WindowMasks masks;
    for (unsigned k = 0; k < 4; ++k) {
        const __m128i bytes = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(p + 16 * k));
        // Unsigned, byte - 6 is at most 2 exactly on the bytes 6-8.
        const __m128i above = _mm_sub_epi8(bytes, six);
        const __m128i access =
            _mm_cmpeq_epi8(_mm_min_epu8(above, two), above);
        const auto lane = [](__m128i mask) {
            return uint64_t{static_cast<uint16_t>(_mm_movemask_epi8(mask))};
        };
        masks.stops |= (lane(bytes) ^ 0xffff) << (16 * k);
        masks.access |= lane(access) << (16 * k);
        masks.zeros |= lane(_mm_cmpeq_epi8(bytes, zero)) << (16 * k);
    }
    return masks;
}
#endif

/** The masks of the 64 bytes at @p p, from this build's builder. */
[[gnu::always_inline]] inline WindowMasks
ClassifyWindow(const char* p)
{
#if defined(__SSE2__)
    return WindowMasksSse2(p);
#else
    return WindowMasksSwar(p);
#endif
}

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_WINDOW_MASKS_H_
