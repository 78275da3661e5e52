/**
 * @file
 * Runtime CPU-feature dispatch for the batch replay kernels.
 *
 * The batch kernels are compiled twice from one portable source: a
 * baseline translation unit (scalar; auto-vectorized with NEON on
 * aarch64, where NEON is part of the baseline ISA) and, on x86-64, an
 * AVX2 translation unit. Which set runs is decided once per
 * simulation from the CPU's capabilities and the BPSIM_SIMD
 * environment override; results are bit-identical across every level
 * by construction (the kernels are integer-exact), which
 * tests/test_simd.cc pins differentially.
 */

#ifndef BPSIM_CORE_SIMD_HH
#define BPSIM_CORE_SIMD_HH

namespace bpsim
{

#if (defined(__x86_64__) || defined(_M_X64)) && \
    !defined(BPSIM_NO_AVX2_KERNELS)
#define BPSIM_HAVE_AVX2_KERNELS 1
#endif

/** Which compiled batch-kernel unit a simulation runs. */
enum class SimdLevel
{
    /** Portable batch kernels from the baseline translation unit. */
    Scalar,

    /** Batch kernels from the AVX2 translation unit (x86-64 only). */
    Avx2,

    /** Baseline translation unit on aarch64, where the compiler
     * vectorizes the batch loops with baseline NEON. */
    Neon,
};

/** Best level the hardware this process runs on supports. */
SimdLevel detectSimdLevel();

/**
 * Level a simulation runs at: detectSimdLevel(), unless the BPSIM_SIMD
 * environment variable (scalar|avx2|neon) forces one. A forced level
 * the hardware or build cannot run (avx2 without CPU support, neon on
 * x86-64) falls back to Scalar; unknown values are ignored. The
 * environment is consulted on every call so tests can flip it
 * mid-process, pinning the compiled units against each other.
 */
SimdLevel resolveSimdLevel();

/** Lower-case level name: "scalar", "avx2" or "neon". */
const char *simdLevelName(SimdLevel level);

/** Nominal vector width in 32-bit lanes (1 for Scalar). */
unsigned simdWidth(SimdLevel level);

} // namespace bpsim

#endif // BPSIM_CORE_SIMD_HH
