#include "src/common/cpu.h"

namespace spur {

bool
CpuHasBmi2()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
#else
    return false;
#endif
}

bool
CpuHasAvx512Vbmi2()
{
#if defined(__x86_64__)
    // libgcc sets the AVX-512 features only when XGETBV shows the OS
    // saves the opmask and zmm state.
    return CpuHasBmi2() && __builtin_cpu_supports("popcnt") &&
           __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vbmi") &&
           __builtin_cpu_supports("avx512vbmi2");
#else
    return false;
#endif
}

bool
CpuIsAmdFamily17h()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_is("amdfam17h");
#else
    return false;
#endif
}

}  // namespace spur
