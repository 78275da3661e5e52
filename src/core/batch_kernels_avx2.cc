/**
 * @file
 * AVX2-target instantiation of the batch replay kernels (x86-64
 * only; compiled with -mavx2 via a CMake source property). The code
 * is the same portable implementation — the vector speedup comes
 * from the compiler vectorizing the precompute loops with the
 * wider ISA; results are bit-identical to the baseline translation
 * unit by integer semantics.
 *
 * The whole file compiles away when the AVX2 kernels are excluded
 * (non-x86 targets, or -DBPSIM_DISABLE_AVX2=ON defining
 * BPSIM_NO_AVX2_KERNELS), keeping the library buildable with one
 * source list.
 */

#include "core/simd.hh"

#if defined(BPSIM_HAVE_AVX2_KERNELS)

#define BPSIM_BATCH_NS kernels_avx2
#include "core/batch_kernels_impl.hh"

#endif // BPSIM_HAVE_AVX2_KERNELS
