/**
 * @file
 * Batched replay kernels: public interface.
 *
 * The batch kernels process each fused-walk block in batches of 16
 * records with a two-pass, carry-the-index discipline:
 *
 *  1. a precompute pass decodes the batch once, evolves the global
 *     history shadow record by record (the only true serial
 *     dependence), computes every table index for the batch, and
 *     issues software prefetches for the gathered counter/tag lines;
 *  2. an apply pass walks the records in order and performs the
 *     branchless counter load / predict / train / tag bookkeeping
 *     with the carried indices — the index is hashed exactly once per
 *     (record, table) and reused at update.
 *
 * The record axis stays scalar in the apply pass because consecutive
 * records genuinely collide in the counter tables (measured 68-99% of
 * 8-record windows share a bimodal index on the SPEC-like workloads),
 * so lane-parallel counter updates would be a conflict-fallback path
 * that almost always falls back. Vector parallelism instead comes
 * from the hash/decode precompute loops (auto-vectorized; the AVX2
 * translation unit compiles them with -mavx2) and from gang members
 * sharing one stream.
 *
 * Every kernel is integer-exact and bit-identical across translation
 * units and to the virtual simulate() loop, the engine's oracle;
 * tests/test_simd.cc pins that differentially.
 */

#ifndef BPSIM_CORE_BATCH_KERNELS_HH
#define BPSIM_CORE_BATCH_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/combined_predictor.hh"
#include "core/sim_stats.hh"
#include "core/simd.hh"
#include "predictor/bimodal.hh"
#include "predictor/bimode.hh"
#include "predictor/ghist.hh"
#include "predictor/gshare.hh"
#include "predictor/two_bc_gskew.hh"
#include "profile/branch_profile.hh"
#include "support/bits.hh"
#include "support/skew.hh"
#include "support/types.hh"
#include "trace/replay_buffer.hh"

namespace bpsim
{

/**
 * Access shims giving the kernels raw SoA views of each predictor's
 * component tables and history register (each predictor befriends
 * BatchTraits; see predictor/predictor.hh).
 */
template <> struct BatchTraits<Gshare>
{
    static CounterTable &table(Gshare &p) { return p.table; }
    static GlobalHistory &history(Gshare &p) { return p.history; }
};

template <> struct BatchTraits<Ghist>
{
    static CounterTable &table(Ghist &p) { return p.table; }
    static GlobalHistory &history(Ghist &p) { return p.history; }
};

template <> struct BatchTraits<Bimodal>
{
    static CounterTable &table(Bimodal &p) { return p.table; }
};

template <> struct BatchTraits<BiMode>
{
    static CounterTable &choice(BiMode &p) { return p.choice; }
    static CounterTable &takenTable(BiMode &p) { return p.takenTable; }
    static CounterTable &
    notTakenTable(BiMode &p)
    {
        return p.notTakenTable;
    }
    static GlobalHistory &history(BiMode &p) { return p.history; }
};

template <> struct BatchTraits<TwoBcGskew>
{
    static CounterTable &bim(TwoBcGskew &p) { return p.bim; }
    static CounterTable &g0(TwoBcGskew &p) { return p.g0; }
    static CounterTable &g1(TwoBcGskew &p) { return p.g1; }
    static CounterTable &meta(TwoBcGskew &p) { return p.meta; }
    static GlobalHistory &history(TwoBcGskew &p) { return p.history; }
    static BitCount histG0(const TwoBcGskew &p) { return p.histG0; }
    static BitCount histG1(const TwoBcGskew &p) { return p.histG1; }
    static BitCount histMeta(const TwoBcGskew &p) { return p.histMeta; }
};

namespace batch
{

/** Dense hint-code bits (0 = no hint for the site). */
inline constexpr std::uint8_t hintPresentBit = 2;
inline constexpr std::uint8_t hintTakenBit = 1;

/**
 * Per-site index material hoisted out of the record loop, built once
 * per stepper: every pure-PC quantity a predictor's index functions
 * need (masked PC indices and PC folds at the relevant widths). What
 * each vector holds depends on the predictor kind; unused vectors
 * stay empty.
 */
struct SiteTables
{
    /** Bimodal/gshare PC index or fold; bi-mode choice index; gskew
     * bimodal-bank index. */
    std::vector<std::uint32_t> primary;

    /** Bi-mode direction-table PC fold; gskew bank-0 PC skew chain
     * H(v1). */
    std::vector<std::uint32_t> secondary;

    /** Gskew bank-1 PC skew chain pre-mixed with its parity source:
     * H(H(v1)) ^ v1. */
    std::vector<std::uint32_t> tertiary;

    /** Gskew meta-bank PC fold. */
    std::vector<std::uint32_t> quaternary;
};

/** Build the per-site tables for @p predictor over @p sites. */
template <typename P>
SiteTables
buildSiteTables(P &predictor, const SiteIndex &sites)
{
    SiteTables tables;
    const std::uint32_t count = sites.siteCount();
    const auto pcIndexOf = [&](std::uint32_t site) {
        return sites.sitePc(site) / instructionBytes;
    };

    if constexpr (std::is_same_v<P, Bimodal>) {
        CounterTable &table = BatchTraits<P>::table(predictor);
        tables.primary.resize(count);
        for (std::uint32_t s = 0; s < count; ++s)
            tables.primary[s] = static_cast<std::uint32_t>(
                table.indexFor(pcIndexOf(s)));
    } else if constexpr (std::is_same_v<P, Gshare>) {
        CounterTable &table = BatchTraits<P>::table(predictor);
        tables.primary.resize(count);
        for (std::uint32_t s = 0; s < count; ++s)
            tables.primary[s] = static_cast<std::uint32_t>(
                foldBits(pcIndexOf(s), table.indexBits()));
    } else if constexpr (std::is_same_v<P, BiMode>) {
        CounterTable &choice = BatchTraits<P>::choice(predictor);
        CounterTable &dir = BatchTraits<P>::takenTable(predictor);
        tables.primary.resize(count);
        tables.secondary.resize(count);
        for (std::uint32_t s = 0; s < count; ++s) {
            tables.primary[s] = static_cast<std::uint32_t>(
                choice.indexFor(pcIndexOf(s)));
            tables.secondary[s] = static_cast<std::uint32_t>(
                foldBits(pcIndexOf(s), dir.indexBits()));
        }
    } else if constexpr (std::is_same_v<P, TwoBcGskew>) {
        CounterTable &bim = BatchTraits<P>::bim(predictor);
        CounterTable &g0 = BatchTraits<P>::g0(predictor);
        CounterTable &meta = BatchTraits<P>::meta(predictor);
        const BitCount bankBits = g0.indexBits();
        tables.primary.resize(count);
        tables.secondary.resize(count);
        tables.tertiary.resize(count);
        tables.quaternary.resize(count);
        for (std::uint32_t s = 0; s < count; ++s) {
            const std::uint64_t v1 =
                foldBits(pcIndexOf(s), bankBits);
            // skewIndex(bank, v1, v2) = H^(bank+1)(v1) ^
            // Hinv^(bank+1)(v2) ^ (bank even ? v2 : v1): the v1 chain
            // is history-free, so it hoists out of the record loop.
            const std::uint64_t a0 = skewH(v1, bankBits);
            tables.primary[s] = static_cast<std::uint32_t>(
                bim.indexFor(pcIndexOf(s)));
            tables.secondary[s] = static_cast<std::uint32_t>(a0);
            tables.tertiary[s] = static_cast<std::uint32_t>(
                skewH(a0, bankBits) ^ v1);
            tables.quaternary[s] = static_cast<std::uint32_t>(
                foldBits(pcIndexOf(s), meta.indexBits()));
        }
    }
    // Ghist indexes purely by history: nothing to hoist.
    (void)predictor;
    return tables;
}

/**
 * One gang segment: @p n same-type members stepping through records
 * [from, to) of the shared walk. Hint codes are per member (all-zero
 * arrays for members without hints); stats flush per member.
 */
template <typename P>
struct GangArgs
{
    P *const *predictors = nullptr;
    const SiteTables *const *siteTables = nullptr;
    const std::uint8_t *const *hintCodes = nullptr;
    SimStats *const *stats = nullptr;
    std::size_t n = 0;
    const ReplayBuffer *buffer = nullptr;
    const std::uint32_t *siteOf = nullptr;
    Count from = 0;
    Count to = 0;
    ShiftPolicy policy = ShiftPolicy::NoShift;
};

/**
 * One dense-profile segment: a single profiling sim accumulating
 * per-site BranchProfile counts (site-indexed array, flushed to the
 * ProfileDb when the pass finishes).
 */
template <typename P>
struct DenseArgs
{
    P *predictor = nullptr;
    const SiteTables *siteTables = nullptr;
    BranchProfile *profiles = nullptr;
    SimStats *stats = nullptr;
    const ReplayBuffer *buffer = nullptr;
    const std::uint32_t *siteOf = nullptr;
    Count from = 0;
    Count to = 0;
};

/**
 * One plain segment: a single dynamic sim, no sites, no hints, no
 * profile (the microbench / CLI / warmup shape).
 */
template <typename P>
struct PlainArgs
{
    P *predictor = nullptr;
    SimStats *stats = nullptr;
    const ReplayBuffer *buffer = nullptr;
    Count from = 0;
    Count to = 0;
};

} // namespace batch

/**
 * The batch kernels are compiled once per instruction-set target from
 * core/batch_kernels_impl.hh; each namespace below is one translation
 * unit's entry points (explicitly instantiated there for the five
 * paper predictors).
 */
namespace kernels_scalar
{
template <typename P> void runGangBatch(const batch::GangArgs<P> &args);
template <typename P>
void runDenseBatch(const batch::DenseArgs<P> &args);
template <typename P>
void runPlainBatch(const batch::PlainArgs<P> &args);
} // namespace kernels_scalar

#if defined(BPSIM_HAVE_AVX2_KERNELS)
namespace kernels_avx2
{
template <typename P> void runGangBatch(const batch::GangArgs<P> &args);
template <typename P>
void runDenseBatch(const batch::DenseArgs<P> &args);
template <typename P>
void runPlainBatch(const batch::PlainArgs<P> &args);
} // namespace kernels_avx2
#endif

/**
 * Whether batched kernel instantiations exist for predictor type
 * @p P. The impl translation units explicitly instantiate the batch
 * kernels for the five paper predictors only; a kernel-visitable type
 * without this trait (e.g. Tage, HashedPerceptron — multi-bank
 * allocation and weight sums don't fit the prepare/apply batch split)
 * gets an empty BatchKernelSet from batchKernelsFor and the engine
 * runs its record kernels instead.
 */
template <typename P> inline constexpr bool hasBatchKernels = false;
template <> inline constexpr bool hasBatchKernels<Bimodal> = true;
template <> inline constexpr bool hasBatchKernels<Ghist> = true;
template <> inline constexpr bool hasBatchKernels<Gshare> = true;
template <> inline constexpr bool hasBatchKernels<BiMode> = true;
template <> inline constexpr bool hasBatchKernels<TwoBcGskew> = true;

/** The kernel entry points one SimdLevel dispatches to. */
template <typename P>
struct BatchKernelSet
{
    void (*gang)(const batch::GangArgs<P> &) = nullptr;
    void (*dense)(const batch::DenseArgs<P> &) = nullptr;
    void (*plain)(const batch::PlainArgs<P> &) = nullptr;

    /** True when the set holds kernels (hasBatchKernels<P>). */
    explicit operator bool() const { return gang != nullptr; }
};

/**
 * Resolve @p level to its kernel set; empty for a type without batch
 * kernels. Neon resolves to the baseline translation unit, which on
 * aarch64 the compiler vectorizes with baseline NEON.
 */
template <typename P>
BatchKernelSet<P>
batchKernelsFor(SimdLevel level)
{
    BatchKernelSet<P> set;
    if constexpr (hasBatchKernels<P>) {
        switch (level) {
#if defined(BPSIM_HAVE_AVX2_KERNELS)
          case SimdLevel::Avx2:
            set.gang = &kernels_avx2::runGangBatch<P>;
            set.dense = &kernels_avx2::runDenseBatch<P>;
            set.plain = &kernels_avx2::runPlainBatch<P>;
            break;
#else
          case SimdLevel::Avx2:
#endif
          case SimdLevel::Scalar:
          case SimdLevel::Neon:
            set.gang = &kernels_scalar::runGangBatch<P>;
            set.dense = &kernels_scalar::runDenseBatch<P>;
            set.plain = &kernels_scalar::runPlainBatch<P>;
            break;
        }
    } else {
        (void)level;
    }
    return set;
}

} // namespace bpsim

#endif // BPSIM_CORE_BATCH_KERNELS_HH
