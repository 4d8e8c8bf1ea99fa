/**
 * @file
 * What the host CPU can run, read from CPUID once per process.
 *
 * The kernels that are compiled for more than baseline x86-64 (by
 * target attributes, never by a -march flag) are picked at run time
 * from these answers: trace replay's PEXT and AVX-512 decoders
 * (src/workload/replay_kernel.h) and the batch hit scan's BMI2
 * instantiation (src/core/system.h).  Every answer is false on a build
 * for any other architecture.
 */
#ifndef SPUR_COMMON_CPU_H_
#define SPUR_COMMON_CPU_H_

namespace spur {

/** Whether this build and CPU have BMI1 and BMI2. */
bool CpuHasBmi2();

/**
 * Whether this build, CPU and OS have AVX512F/BW/VBMI/VBMI2, PCLMUL,
 * POPCNT and BMI2: the replay decoder's SPUR_AVX512_TARGET.
 */
bool CpuHasAvx512Vbmi2();

/** Whether the CPU is AMD family 17h (Zen 1 and 2: microcoded pext). */
bool CpuIsAmdFamily17h();

}  // namespace spur

#endif  // SPUR_COMMON_CPU_H_
