/**
 * @file
 * The three kernels trace replay decodes access runs with, and the seam
 * that picks one (DESIGN.md §19).  Private to src/workload: trace.cc,
 * op_decoder.h, replay_avx512.cc, the trace tests and
 * bench/micro_trace.cc include it.
 *
 * An access run's varint of n bytes (n = 1-5), loaded as an 8-byte word
 * at its first byte, holds its 7-bit groups in bits 0-6, 8-14, ... of
 * the low n bytes; kVarintGroups[n] selects exactly those bits.  The
 * two scalar kernels decode a run one op at a time (ScalarRun in
 * op_decoder.h) and return each varint's groups packed together, low
 * group first:
 *
 *   VarintSwar  ANDs the word with the mask and closes the gaps with
 *               three shift-and-mask steps (CompactVarint).  Portable;
 *               the only kernel on every target but x86-64, and the
 *               tests' oracle.
 *   VarintPext  one BMI2 pext against the same mask, which gathers the
 *               selected bits in order by definition: the masked-VByte
 *               idea of Plaisance, Kurz and Lemire (arXiv:1503.07387).
 *               x86-64 only, compiled for BMI1+BMI2 by a target
 *               attribute, never by a -march flag.
 *
 * The third, AVX-512 (replay_avx512.cc), turns a whole 64-byte window
 * into all of its access ops in one step: the same masked-VByte idea
 * applied to a whole run.  x86-64 only, compiled for SPUR_AVX512_TARGET
 * by target attributes.
 *
 * ReplayStream runs HostReplayKernel(): AVX-512 where the CPU and the OS
 * support everything its target names; else PEXT where the CPU has BMI2
 * and is not AMD family 17h (Zen 1 and 2 run pext in microcode, at tens
 * to hundreds of cycles per op depending on the mask); SWAR otherwise.
 * ReplayStreamWith lets the tests and the micro benchmark run any.
 */
#ifndef SPUR_WORKLOAD_REPLAY_KERNEL_H_
#define SPUR_WORKLOAD_REPLAY_KERNEL_H_

#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/workload/trace.h"

namespace spur::workload {

/**
 * The 7-bit groups of an n-byte varint, n = 1-5 (the varints an access
 * run holds), as the low n bytes of a word less their high bits: ANDed
 * with a load at the varint's first byte, it drops the bytes past the
 * varint and its continuation bits.
 */
inline constexpr uint64_t kVarintGroups[6] = {
    0, 0x7f, 0x7f7f, 0x7f7f7f, 0x7f7f7f7f, 0x7f7f7f7f7f,
};

/**
 * Inverse of PutVarint's spread: 7-bit groups in bytes, their high bits
 * clear -> value.
 */
[[gnu::always_inline]] inline uint64_t
CompactVarint(uint64_t word)
{
    // In each 16-bit lane, lo + hi / 2 (hi is the upper group, bits
    // 8-14) is the lane less hi / 2: one subtract moves hi down a bit.
    word -= (word & 0x7F007F007F007F00) >> 1;
    word = (word & 0x00003FFF00003FFF) | ((word & 0x3FFF00003FFF0000) >> 2);
    return (word & 0x000000000FFFFFFF) | ((word & 0x0FFFFFFF00000000) >> 4);
}

/** The portable kernel: mask, then compact. */
struct VarintSwar {
    [[gnu::always_inline]] static uint64_t Value(uint64_t word, unsigned n)
    {
        return CompactVarint(word & kVarintGroups[n]);
    }
};

#if defined(__x86_64__)
/**
 * The BMI2 kernel.  Not forced inline: a forced inline into code not
 * compiled for BMI2 is an error, and DecodeAccessRun is such code until
 * it is itself inlined into trace.cc's BMI2 replay wrapper, where the
 * compiler inlines this too.  Called elsewhere, it is a plain call.
 */
struct VarintPext {
    [[gnu::target("bmi,bmi2")]] static uint64_t
    Value(uint64_t word, unsigned n)
    {
        return _pext_u64(word, kVarintGroups[n]);
    }
};

/**
 * The target the AVX-512 kernel is compiled for, by attribute: the
 * features CpuHasAvx512Vbmi2() checks.
 */
#define SPUR_AVX512_TARGET \
    "avx512f,avx512bw,avx512vbmi,avx512vbmi2,pclmul,popcnt,bmi,bmi2"
#endif

enum class ReplayKernel : uint8_t { kSwar, kPext, kAvx512 };

/**
 * The kernel for a CPU with or without BMI2 (@p bmi2: BMI1 and BMI2,
 * which the PEXT kernel's target needs) that is or is not AMD family
 * 17h, and that can or cannot run the AVX-512 kernel (@p avx512: the CPU
 * and the OS support every feature of SPUR_AVX512_TARGET).
 */
constexpr ReplayKernel
ChooseReplayKernel(bool bmi2, bool amd_family_17h, bool avx512)
{
    if (avx512) {
        return ReplayKernel::kAvx512;
    }
    return bmi2 && !amd_family_17h ? ReplayKernel::kPext
                                   : ReplayKernel::kSwar;
}

/** ChooseReplayKernel of this CPU's CPUID, read once per process. */
ReplayKernel HostReplayKernel();

/**
 * ReplayStream with @p kernel in place of HostReplayKernel().  Asking
 * for PEXT where !CpuHasBmi2(), or for AVX-512 where
 * !CpuHasAvx512Vbmi2(), is a fatal error.
 */
ReplayStats ReplayStreamWith(const TraceStream& stream, WorkloadHost& host,
                             ReplayKernel kernel);

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_REPLAY_KERNEL_H_
