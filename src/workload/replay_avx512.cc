/**
 * @file
 * The AVX-512 replay kernel (DESIGN.md §19): DecodeOps with a run step
 * that turns one classified 64-byte window into all of its access ops
 * at once, the masked-VByte decode of Plaisance, Kurz and Lemire
 * (arXiv:1503.07387) widened from one varint to a whole run.
 *
 * A translation unit of its own, so the kernel's code does not move the
 * rest of trace.cc's.  Every function here that uses AVX-512 carries
 * SPUR_AVX512_TARGET; nothing is compiled with a -march flag, and only
 * HostReplayKernel() or a CpuHasAvx512Vbmi2() check leads here.
 */
#include "src/workload/op_decoder.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <array>
#include <cstddef>

namespace spur::workload {

// The kernel's helpers sit in a namespace of their own, so a profile
// (tools/prof/report.py) charges their inlined frames to decode.
namespace avx512 {
namespace {

#define SPUR_AVX512 gnu::always_inline, gnu::target(SPUR_AVX512_TARGET)

// GCC vector types: their operators compile to the same instructions as
// the unmasked intrinsics, which GCC 12 builds on an uninitialized
// _mm512_undefined_epi32() that -Wmaybe-uninitialized rejects.
using U8x64 = uint8_t __attribute__((vector_size(64)));
using U32x16 = uint32_t __attribute__((vector_size(64)));
using U64x8 = uint64_t __attribute__((vector_size(64)));

/** References one group of the step writes: 16 dword lanes of them. */
constexpr size_t kGroupRefs = 16;
static_assert(kMaxRunAccesses >= 2 * kGroupRefs,
              "AccessSlots() must hold both groups of a 32-op window");
static_assert(sizeof(MemRef) == 12 && offsetof(MemRef, pid) == 0 &&
                  offsetof(MemRef, addr) == 4 &&
                  offsetof(MemRef, type) == 8,
              "the step writes MemRefs as three dwords each");

/** A 64-byte permute or add operand; entry i is byte or dword lane i. */
template <class T, size_t N>
struct alignas(64) Table {
    std::array<T, N> lanes;
};

/** @p K tables of @p N lanes, lane i of table k being f(k, i). */
template <class T, size_t N, size_t K, class F>
constexpr std::array<Table<T, N>, K>
MakeTables(F f)
{
    std::array<Table<T, N>, K> tables{};
    for (size_t k = 0; k < K; ++k) {
        for (size_t i = 0; i < N; ++i) {
            tables[k].lanes[i] = static_cast<T>(f(k, i));
        }
    }
    return tables;
}

/** Byte i: i + 1, the first varint byte of an opcode at byte i. */
constexpr auto kVarintStart = MakeTables<uint8_t, 64, 1>(
    [](size_t, size_t i) { return i + 1; })[0];

/**
 * Per quarter q of a 32-op window: byte 8i + k is 8q + i, so a vpermb
 * of the ops' varint starts by it spreads op 8q + i's to qword lane i.
 */
constexpr auto kSpread = MakeTables<uint8_t, 64, 4>(
    [](size_t q, size_t i) { return 8 * q + i / 8; });

/** Byte 8i + k: k, the byte of its varint a qword lane's byte k reads. */
constexpr auto kByteInLane = MakeTables<uint8_t, 64, 1>(
    [](size_t, size_t i) { return i % 8; })[0];

/**
 * Per group g: byte 4i is 16g + i, so a vpermb of the ops' types by it,
 * masked to kDwordLowBytes, puts op 16g + i's in dword i.
 */
constexpr auto kTypeDwords = MakeTables<uint8_t, 64, 2>(
    [](size_t g, size_t i) { return 16 * g + i / 4; });
constexpr uint64_t kDwordLowBytes = 0x1111111111111111;

/** Dword i: 2i, the low halves of two qword vectors, in order. */
constexpr auto kLowDwords = MakeTables<uint32_t, 16, 1>(
    [](size_t, size_t i) { return 2 * i; })[0];

/**
 * Per output zmm r of a group's three: dword i is field (16r + i) % 3 of
 * MemRef (16r + i) / 3.  The addr field indexes the addresses (0-15) and
 * the type field the types (16-31); the pid field is written in at run
 * time and kept by the permute's mask, kRefFields.
 */
constexpr auto kRefIndex = MakeTables<uint32_t, 16, 3>(
    [](size_t r, size_t i) {
        const size_t dword = 16 * r + i;
        return (dword % 3 == 2 ? 16 : 0) + dword / 3;
    });

/** Per output zmm r: the dwords i with (16r + i) % 3 != 0, no pid field. */
constexpr std::array<__mmask16, 3> kRefFields = {0x6db6, 0xb6db, 0xdb6d};

template <class T, size_t N>
[[SPUR_AVX512]] inline __m512i
Load(const Table<T, N>& table)
{
    return _mm512_load_si512(table.lanes.data());
}

[[SPUR_AVX512]] inline WindowMasks
MasksOf(__m512i bytes)
{
    // Signed, a byte is non-negative exactly when it is below 0x80;
    // unsigned, byte - 6 is at most 2 exactly on the bytes 6-8.
    const __m512i zero = _mm512_setzero_si512();
    const auto above = reinterpret_cast<__m512i>(
        reinterpret_cast<U8x64>(bytes) - 6);
    return {_mm512_cmpge_epi8_mask(bytes, zero),
            _mm512_cmple_epu8_mask(above, _mm512_set1_epi8(2)),
            _mm512_cmpeq_epi8_mask(bytes, zero)};
}

[[SPUR_AVX512]] inline uint64_t
ClmulPrefixXor(uint64_t bits)
{
    // Bit i of the product by all ones is the XOR of bits 0..i.
    const __m128i product =
        _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<int64_t>(bits)),
                             _mm_set1_epi8(-1), 0);
    return static_cast<uint64_t>(_mm_cvtsi128_si64(product));
}

/**
 * The address deltas of ops 8q to 8q + 7, one per qword lane: each
 * op's varint gathered from @p bytes at its position in @p starts (byte
 * j: op j's first varint byte), cut after its last byte (the first
 * below 0x80), compacted as CompactVarint does and zigzag-decoded.
 * Lanes of ops past the run hold garbage.
 */
[[SPUR_AVX512]] inline U64x8
Deltas(__m512i bytes, __m512i starts, unsigned q)
{
    const auto at = reinterpret_cast<U8x64>(
                        _mm512_maskz_permutexvar_epi8(~uint64_t{0},
                                                      Load(kSpread[q]),
                                                      starts)) +
                    reinterpret_cast<U8x64>(Load(kByteInLane));
    auto w = reinterpret_cast<U64x8>(_mm512_maskz_permutexvar_epi8(
        ~uint64_t{0}, reinterpret_cast<__m512i>(at), bytes));
    // The varint's last byte is its lane's lowest stop: keep the bits
    // below that stop's high bit, less the other bytes' high bits.
    const U64x8 stop = ~w & 0x8080808080808080;
    w &= (stop - 1) & 0x7f7f7f7f7f7f7f7f;
    w -= (w & 0x7F007F007F007F00) >> 1;
    w = (w & 0x00003FFF00003FFF) | ((w & 0x3FFF00003FFF0000) >> 2);
    w = (w & 0x000000000FFFFFFF) | ((w & 0x0FFFFFFF00000000) >> 4);
    return (w >> 1) ^ -(w & 1);
}

/** @p x shifted up by @p k dword lanes, zeros shifted in. */
template <int k>
[[SPUR_AVX512]] inline U32x16
ShiftUp(U32x16 x)
{
    return reinterpret_cast<U32x16>(_mm512_maskz_alignr_epi32(
        0xffff, reinterpret_cast<__m512i>(x), _mm512_setzero_si512(),
        16 - k));
}

/**
 * Writes the kGroupRefs references of ops 16g to 16g + 15 to @p out,
 * their addresses @p base plus the running sum of their deltas, and
 * returns those addresses.
 */
[[SPUR_AVX512]] inline U32x16
WriteGroup(__m512i bytes, __m512i starts, __m512i types, unsigned g,
           U32x16 base, const __m512i (&index)[3], MemRef* out)
{
    // The low 32 bits of each 64-bit delta: the scalar kernels' int64
    // add and cast to ProcessAddr, mod 2^32.
    U32x16 addr = reinterpret_cast<U32x16>(_mm512_permutex2var_epi32(
        reinterpret_cast<__m512i>(Deltas(bytes, starts, 2 * g)),
        Load(kLowDwords),
        reinterpret_cast<__m512i>(Deltas(bytes, starts, 2 * g + 1))));
    addr += ShiftUp<1>(addr);
    addr += ShiftUp<2>(addr);
    addr += ShiftUp<4>(addr);
    addr += ShiftUp<8>(addr);
    addr += base;
    const __m512i type = _mm512_maskz_permutexvar_epi8(
        kDwordLowBytes, Load(kTypeDwords[g]), types);
    char* dst = reinterpret_cast<char*>(out + kGroupRefs * g);
    for (unsigned r = 0; r < 3; ++r) {
        _mm512_storeu_si512(dst + 64 * r,
                            _mm512_mask2_permutex2var_epi32(
                                reinterpret_cast<__m512i>(addr), index[r],
                                kRefFields[r], type));
    }
    return addr;
}

/** Dword lane @p lane (mod 16) of @p x, in every lane. */
[[SPUR_AVX512]] inline U32x16
Broadcast(U32x16 x, unsigned lane)
{
    return reinterpret_cast<U32x16>(_mm512_maskz_permutexvar_epi32(
        0xffff, _mm512_set1_epi32(static_cast<int>(lane)),
        reinterpret_cast<__m512i>(x)));
}

/**
 * The AVX-512 run step.  Not forced inline: DecodeOps, which calls it, is
 * not compiled for AVX-512 until it is itself inlined into
 * DecodeOpsAvx512, where GCC inlines this too.
 */
struct RunAvx512 {
    [[gnu::target(SPUR_AVX512_TARGET)]] static RunStep
    Decode(const char* p, ProcessAddr* last_addr, Pid pid, MemRef* out)
    {
        const __m512i bytes = _mm512_loadu_si512(p);
        const WindowMasks masks = MasksOf(bytes);
        const uint64_t run = RunEnds(masks, ClmulPrefixXor(masks.stops));
        if (run == 0) {
            return {};
        }
        const auto span = static_cast<unsigned>(std::bit_width(run));
        const auto n = static_cast<unsigned>(std::popcount(run));
        // Each op starts after the one before it ends.  Packed into
        // registers (vpcompressb to memory is microcoded on Zen 4): the
        // ops' varint starts and their types, op j in byte j.
        const uint64_t opcodes = _bzhi_u64((run << 1) | 1, span);
        const __m512i starts =
            _mm512_maskz_compress_epi8(opcodes, Load(kVarintStart));
        const __m512i types = _mm512_maskz_compress_epi8(
            opcodes, reinterpret_cast<__m512i>(
                         reinterpret_cast<U8x64>(bytes) - kOpIFetch));
        const __m512i pids = _mm512_set1_epi32(static_cast<int>(pid));
        const __m512i index[3] = {
            _mm512_mask_mov_epi32(Load(kRefIndex[0]),
                                  static_cast<__mmask16>(~kRefFields[0]),
                                  pids),
            _mm512_mask_mov_epi32(Load(kRefIndex[1]),
                                  static_cast<__mmask16>(~kRefFields[1]),
                                  pids),
            _mm512_mask_mov_epi32(Load(kRefIndex[2]),
                                  static_cast<__mmask16>(~kRefFields[2]),
                                  pids),
        };
        U32x16 addr = WriteGroup(
            bytes, starts, types, 0,
            reinterpret_cast<U32x16>(
                _mm512_set1_epi32(static_cast<int>(*last_addr))),
            index, out);
        if (n > kGroupRefs) {
            addr = WriteGroup(bytes, starts, types, 1, Broadcast(addr, 15),
                              index, out);
        }
        *last_addr = Broadcast(addr, n - 1)[0];
        return {n, span};
    }
};

#undef SPUR_AVX512

}  // namespace
}  // namespace avx512

[[gnu::target(SPUR_AVX512_TARGET)]] WindowMasks
WindowMasksAvx512(const char* p)
{
    return avx512::MasksOf(_mm512_loadu_si512(p));
}

[[gnu::target(SPUR_AVX512_TARGET)]] uint64_t
PrefixXorClmul(uint64_t bits)
{
    return avx512::ClmulPrefixXor(bits);
}

[[gnu::target(SPUR_AVX512_TARGET)]] RunStep
DecodeRunAvx512(const char* p, ProcessAddr* last_addr, Pid pid,
                MemRef* out)
{
    return avx512::RunAvx512::Decode(p, last_addr, pid, out);
}

[[gnu::target(SPUR_AVX512_TARGET)]] bool
DecodeOpsAvx512(std::string_view ops, DecodeState* state, Replayer& replayer,
                std::string* why)
{
    return DecodeOps<Replayer, avx512::RunAvx512>(ops, state, replayer,
                                                   why);
}

}  // namespace spur::workload

#endif  // defined(__x86_64__)
