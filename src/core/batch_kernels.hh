/**
 * @file
 * Batched replay kernels: public interface.
 *
 * The batch kernels step each member of a fused-walk block segment
 * over its own record stream: the records its predictor sees, from
 * the member's own cursor, in full batches of 16. Under NoShift a
 * statically hinted record touches neither the dynamic tables nor the
 * history, so a hinted member's fill drops it and it never reaches
 * prepare or apply; the engine settles hinted sites from the window's
 * per-site outcome totals (SiteIndex::outcomesOver). Each batch then
 * takes a two-pass, carry-the-index discipline:
 *
 *  1. a prepare pass evolves the global history shadow record by
 *     record (the only true serial dependence), computes every table
 *     index for the batch, and issues software prefetches for the
 *     gathered counter/tag lines;
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
 * from the hash precompute loops (auto-vectorized; the AVX2
 * translation unit compiles them with -mavx2), and gang members apply
 * their batches in lockstep, record-major, so their independent
 * dependency chains overlap.
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
#include <unordered_map>
#include <vector>

#include "core/combined_predictor.hh"
#include "core/sim_stats.hh"
#include "core/simd.hh"
#include "predictor/agree.hh"
#include "predictor/bimodal.hh"
#include "predictor/bimode.hh"
#include "predictor/ghist.hh"
#include "predictor/gshare.hh"
#include "predictor/perceptron.hh"
#include "predictor/tage.hh"
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

template <> struct BatchTraits<Tage>
{
    static CounterTable &base(Tage &p) { return p.base; }
    static CounterTable &
    bank(Tage &p, unsigned b)
    {
        return p.banks[b].pred;
    }
    static std::uint8_t *
    tags(Tage &p, unsigned b)
    {
        return p.banks[b].tags.data();
    }
    static std::uint8_t *
    useful(Tage &p, unsigned b)
    {
        return p.banks[b].useful.data();
    }
    static LongHistory &history(Tage &p) { return p.history; }

    /** Bank @p b's folds: 0 = index, 1 = tag, 2 = shifted tag. */
    static FoldedHistory &
    fold(Tage &p, unsigned b, unsigned which)
    {
        Tage::Bank &bank = p.banks[b];
        return which == 0 ? bank.idxFold
                          : (which == 1 ? bank.tagFold1 : bank.tagFold2);
    }

    static Count &allocations(Tage &p) { return p.allocations; }

    /** update()'s aging tick: count one update and age the useful
     * counters when the period is up. */
    static void
    countUpdate(Tage &p)
    {
        if (++p.updatesSinceAging >= p.agePeriod)
            p.ageUseful();
    }
};

template <> struct BatchTraits<HashedPerceptron>
{
    static CounterTable &
    table(HashedPerceptron &p, unsigned t)
    {
        return p.tables[t];
    }
    static GlobalHistory &
    history(HashedPerceptron &p)
    {
        return p.history;
    }
    static int
    threshold(const HashedPerceptron &p)
    {
        return p.trainingThreshold;
    }
};

template <> struct BatchTraits<Agree>
{
    static CounterTable &table(Agree &p) { return p.table; }
    static GlobalHistory &history(Agree &p) { return p.history; }

    /** The PC-keyed bias bits, authoritative between passes. */
    static std::unordered_map<Addr, bool> &
    biasBits(Agree &p)
    {
        return p.biasBits;
    }
};

namespace batch
{

/** Dense hint-code bits (0 = no hint for the site). */
inline constexpr std::uint8_t hintPresentBit = 2;
inline constexpr std::uint8_t hintTakenBit = 1;

/** Dense agree bias-bit codes (0 = the site has not executed yet). */
inline constexpr std::uint8_t biasLatchedBit = 2;
inline constexpr std::uint8_t biasTakenBit = 1;

/**
 * Whether kernel type @p P keeps per-site state of its own (agree's
 * bias bits), so every pass of it runs over a site index: the engine
 * builds one when the caller passes none and runs a lone unhinted sim
 * as a one-member gang without hint codes. runPlainBatch never sees
 * such a type.
 */
template <typename P> inline constexpr bool needsSiteIndex = false;
template <> inline constexpr bool needsSiteIndex<Agree> = true;

/**
 * Per-site index material hoisted out of the record loop, built once
 * per stepper: every pure-PC quantity a predictor's index functions
 * need (masked PC indices and PC folds at the relevant widths), plus
 * agree's per-site bias bits. What each vector holds depends on the
 * predictor kind; unused vectors stay empty.
 */
struct SiteTables
{
    /** Bimodal/gshare/agree PC index or fold; bi-mode choice index;
     * gskew bimodal-bank index; TAGE base index; perceptron
     * table-width PC fold. */
    std::vector<std::uint32_t> primary;

    /** Bi-mode direction-table PC fold; gskew bank-0 PC skew chain
     * H(v1); TAGE bank-width PC fold. */
    std::vector<std::uint32_t> secondary;

    /** Gskew bank-1 PC skew chain pre-mixed with its parity source:
     * H(H(v1)) ^ v1; TAGE tag-width PC fold. */
    std::vector<std::uint32_t> tertiary;

    /** Gskew meta-bank PC fold. */
    std::vector<std::uint32_t> quaternary;

    /** Agree's bias bits, one biasLatchedBit | biasTakenBit code per
     * site, built from the predictor's map. Unlike the index vectors
     * above, the kernels write it: apply latches a first execution
     * into both it and the map, so the map stays authoritative. */
    std::vector<std::uint8_t> bias;
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
    } else if constexpr (std::is_same_v<P, Gshare> ||
                         std::is_same_v<P, Agree>) {
        CounterTable &table = BatchTraits<P>::table(predictor);
        tables.primary.resize(count);
        for (std::uint32_t s = 0; s < count; ++s)
            tables.primary[s] = static_cast<std::uint32_t>(
                foldBits(pcIndexOf(s), table.indexBits()));
        if constexpr (std::is_same_v<P, Agree>) {
            const std::unordered_map<Addr, bool> &bits =
                BatchTraits<P>::biasBits(predictor);
            tables.bias.assign(count, 0);
            for (std::uint32_t s = 0; s < count; ++s) {
                const auto it = bits.find(sites.sitePc(s));
                if (it != bits.end())
                    tables.bias[s] =
                        biasLatchedBit | (it->second ? biasTakenBit : 0);
            }
        }
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
    } else if constexpr (std::is_same_v<P, Tage>) {
        CounterTable &base = BatchTraits<P>::base(predictor);
        const BitCount bankBits =
            BatchTraits<P>::bank(predictor, 0).indexBits();
        tables.primary.resize(count);
        tables.secondary.resize(count);
        tables.tertiary.resize(count);
        for (std::uint32_t s = 0; s < count; ++s) {
            tables.primary[s] = static_cast<std::uint32_t>(
                base.indexFor(pcIndexOf(s)));
            tables.secondary[s] = static_cast<std::uint32_t>(
                foldBits(pcIndexOf(s), bankBits));
            tables.tertiary[s] = static_cast<std::uint32_t>(
                foldBits(pcIndexOf(s), Tage::tagBits));
        }
    } else if constexpr (std::is_same_v<P, HashedPerceptron>) {
        const BitCount bits =
            BatchTraits<P>::table(predictor, 0).indexBits();
        tables.primary.resize(count);
        for (std::uint32_t s = 0; s < count; ++s)
            tables.primary[s] = static_cast<std::uint32_t>(
                foldBits(pcIndexOf(s), bits));
    }
    // Ghist indexes purely by history: nothing to hoist.
    (void)predictor;
    return tables;
}

/**
 * One gang segment: @p n same-type members stepping through records
 * [from, to) of the shared walk. Hint codes are per member (null for
 * a member without hints); stats flush per member. Under NoShift a
 * member's hinted records are dropped at fill; under a shifting policy
 * every member has codes, and its hinted records advance the history
 * but are not applied. Either way the kernels count no statistic for
 * them.
 */
template <typename P>
struct GangArgs
{
    P *const *predictors = nullptr;
    SiteTables *const *siteTables = nullptr;
    const std::uint8_t *const *hintCodes = nullptr;
    SimStats *const *stats = nullptr;
    std::size_t n = 0;
    const ReplayBuffer *buffer = nullptr;
    const std::uint32_t *siteOf = nullptr;
    Count from = 0;
    Count to = 0;
    ShiftPolicy policy = ShiftPolicy::NoShift;

    /** Optional output: n counters, each increased by the records its
     * member applied (its share of the gang's work). */
    Count *applied = nullptr;
};

/**
 * One solo segment: a sim that runs alone over the site index because
 * it accumulates per-site BranchProfile counts (site-indexed array,
 * flushed to the ProfileDb when the pass finishes), reports colliding
 * lookups to a ContextAliasSink, or both; at least one of @p profiles
 * and @p sink is set. Optional dense hint codes apply under @p policy
 * as in a gang; the profile counts cover the records the sim applies,
 * and the engine adds the hinted sites' outcomes, as simulate()
 * records them, from the window's totals.
 */
template <typename P>
struct SoloArgs
{
    P *predictor = nullptr;
    SiteTables *siteTables = nullptr;
    const std::uint8_t *hintCodes = nullptr;
    ShiftPolicy policy = ShiftPolicy::NoShift;
    BranchProfile *profiles = nullptr;
    ContextAliasSink *sink = nullptr;
    SimStats *stats = nullptr;
    const ReplayBuffer *buffer = nullptr;
    const std::uint32_t *siteOf = nullptr;
    Count from = 0;
    Count to = 0;
};

/**
 * One plain segment: a single dynamic sim, no sites, no hints, no
 * profile (the microbench / CLI / warmup shape), of a type without
 * per-site state (needsSiteIndex).
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
 * unit's entry points, explicitly instantiated there for every type in
 * BPSIM_KERNEL_PREDICTORS (a listed type without a batch state fails
 * to compile).
 */
namespace kernels_scalar
{
template <typename P> void runGangBatch(const batch::GangArgs<P> &args);
template <typename P> void runSoloBatch(const batch::SoloArgs<P> &args);
template <typename P>
void runPlainBatch(const batch::PlainArgs<P> &args);
} // namespace kernels_scalar

#if defined(BPSIM_HAVE_AVX2_KERNELS)
namespace kernels_avx2
{
template <typename P> void runGangBatch(const batch::GangArgs<P> &args);
template <typename P> void runSoloBatch(const batch::SoloArgs<P> &args);
template <typename P>
void runPlainBatch(const batch::PlainArgs<P> &args);
} // namespace kernels_avx2
#endif

/** The kernel entry points one SimdLevel dispatches to. */
template <typename P>
struct BatchKernelSet
{
    void (*gang)(const batch::GangArgs<P> &) = nullptr;
    void (*solo)(const batch::SoloArgs<P> &) = nullptr;
    void (*plain)(const batch::PlainArgs<P> &) = nullptr;
};

/**
 * Resolve @p level to the kernel set of kernel-visited type @p P.
 * Neon resolves to the baseline translation unit, which on aarch64
 * the compiler vectorizes with baseline NEON.
 */
template <typename P>
BatchKernelSet<P>
batchKernelsFor(SimdLevel level)
{
    BatchKernelSet<P> set;
    switch (level) {
#if defined(BPSIM_HAVE_AVX2_KERNELS)
      case SimdLevel::Avx2:
        set.gang = &kernels_avx2::runGangBatch<P>;
        set.solo = &kernels_avx2::runSoloBatch<P>;
        set.plain = &kernels_avx2::runPlainBatch<P>;
        break;
#else
      case SimdLevel::Avx2:
#endif
      case SimdLevel::Scalar:
      case SimdLevel::Neon:
        set.gang = &kernels_scalar::runGangBatch<P>;
        set.solo = &kernels_scalar::runSoloBatch<P>;
        set.plain = &kernels_scalar::runPlainBatch<P>;
        break;
    }
    return set;
}

} // namespace bpsim

#endif // BPSIM_CORE_BATCH_KERNELS_HH
