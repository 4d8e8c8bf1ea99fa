/**
 * @file
 * The two kernels trace replay decodes access runs with, and the seam
 * that picks one (DESIGN.md §19).  Private to src/workload: trace.cc,
 * the trace tests and bench/micro_trace.cc include it.
 *
 * An access run's varint of n bytes (n = 1-5), loaded as an 8-byte word
 * at its first byte, holds its 7-bit groups in bits 0-6, 8-14, ... of
 * the low n bytes; kVarintGroups[n] selects exactly those bits.  Both
 * kernels return the groups packed together, low group first:
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
 * ReplayStream runs HostReplayKernel(): PEXT where the CPU has BMI2 and
 * is not AMD family 17h (Zen 1 and 2 run pext in microcode, at tens to
 * hundreds of cycles per op depending on the mask), SWAR otherwise.
 * ReplayStreamWith lets the tests and the micro benchmark run either.
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
#endif

enum class ReplayKernel : uint8_t { kSwar, kPext };

/**
 * The kernel for a CPU with or without BMI2 (@p bmi2: BMI1 and BMI2,
 * which the kernel's target needs) that is or is not AMD family 17h.
 */
constexpr ReplayKernel
ChooseReplayKernel(bool bmi2, bool amd_family_17h)
{
    return bmi2 && !amd_family_17h ? ReplayKernel::kPext
                                   : ReplayKernel::kSwar;
}

/** Whether this build and CPU can run the PEXT kernel at all. */
bool CpuHasBmi2();

/** ChooseReplayKernel of this CPU's CPUID, read once per process. */
ReplayKernel HostReplayKernel();

/**
 * ReplayStream with @p kernel in place of HostReplayKernel().  Asking
 * for PEXT where !CpuHasBmi2() is a fatal error.
 */
ReplayStats ReplayStreamWith(const TraceStream& stream, WorkloadHost& host,
                             ReplayKernel kernel);

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_REPLAY_KERNEL_H_
