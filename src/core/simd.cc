#include "core/simd.hh"

#include <cstdlib>
#include <cstring>

namespace bpsim
{

SimdLevel
detectSimdLevel()
{
#if defined(BPSIM_HAVE_AVX2_KERNELS)
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
    return SimdLevel::Scalar;
#elif defined(__aarch64__)
    // NEON is baseline on aarch64: the "scalar" translation unit is
    // already NEON-vectorized.
    return SimdLevel::Neon;
#else
    return SimdLevel::Scalar;
#endif
}

SimdLevel
resolveSimdLevel()
{
    // Consulted on every call (no caching): tests set BPSIM_SIMD
    // mid-process to pin the override and fallback behaviour.
    const char *env = std::getenv("BPSIM_SIMD");
    if (env != nullptr) {
        if (std::strcmp(env, "scalar") == 0)
            return SimdLevel::Scalar;
        if (std::strcmp(env, "avx2") == 0) {
            // Forcing a level the hardware (or build) cannot run
            // falls back to the portable batch kernels.
            return detectSimdLevel() == SimdLevel::Avx2
                       ? SimdLevel::Avx2
                       : SimdLevel::Scalar;
        }
        if (std::strcmp(env, "neon") == 0) {
            return detectSimdLevel() == SimdLevel::Neon
                       ? SimdLevel::Neon
                       : SimdLevel::Scalar;
        }
        // Unknown value: ignore the override.
    }
    return detectSimdLevel();
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Avx2:
        return "avx2";
      case SimdLevel::Neon:
        return "neon";
    }
    return "scalar";
}

unsigned
simdWidth(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Avx2:
        return 8;
      case SimdLevel::Neon:
        return 4;
      case SimdLevel::Scalar:
        break;
    }
    return 1;
}

} // namespace bpsim
