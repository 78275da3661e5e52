/**
 * @file
 * Batched replay kernel implementation, compiled once per
 * instruction-set target.
 *
 * This header is NOT a normal include: it has no include guard and
 * must be included by exactly one translation unit per target, with
 * BPSIM_BATCH_NS defined to that target's namespace (kernels_scalar,
 * kernels_avx2). Everything except the entry points lives in an
 * anonymous namespace, so the per-target copies cannot collide even
 * though they are compiled with different instruction-set flags.
 *
 * Kernel shape (see core/batch_kernels.hh for the rationale): each
 * member of a segment steps its own record stream — the records its
 * predictor sees, with a NoShift member's hinted records dropped at
 * fill — in full batches of batchRecords records, software pipelined
 * one batch deep. While batch b is applied, every member's batch b+1
 * is already filled and prepared: its table indices are computed —
 * evolving a register-resident shadow of the global history, the one
 * true serial dependence — and the counter/tag lines are prefetched,
 * so their latency overlaps batch b's work. The prepare passes split
 * into a serial loop (history shadow, site-table loads, history folds)
 * and a pure elementwise loop (XOR/shift/mask index math) the compiler
 * can vectorize across records. The apply pass walks each member's
 * records in order, performing the branchless counter load / predict
 * / train / tag update with the carried indices; its per-record
 * operation sequence is exactly the one the virtual simulate() loop
 * performs for a dynamically predicted record, so every SimStats
 * field, collision statistic, profile count, alias-sink cell and
 * table byte is bit-identical to the oracle's once the engine has
 * settled the hinted sites. Collision accounting is one tally
 * increment per applied record (see CollisionTally), from which each
 * table's statistics are derived at segment end.
 */

#include "core/batch_kernels.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "predictor/factory.hh"
#include "support/bits.hh"
#include "support/sat_counter.hh"
#include "support/skew.hh"

#ifndef BPSIM_BATCH_NS
#error "define BPSIM_BATCH_NS before including batch_kernels_impl.hh"
#endif

#if defined(__GNUC__) || defined(__clang__)
#define BPSIM_BATCH_PREFETCH(addr) __builtin_prefetch(addr)
#define BPSIM_BATCH_INLINE inline __attribute__((always_inline))
#define BPSIM_BATCH_NOINLINE __attribute__((noinline))
#else
#define BPSIM_BATCH_PREFETCH(addr) ((void)0)
#define BPSIM_BATCH_INLINE inline
#define BPSIM_BATCH_NOINLINE
#endif

namespace bpsim
{
namespace BPSIM_BATCH_NS
{
namespace
{

/** Records per batch (the prepare/apply granularity). */
constexpr std::size_t batchRecords = 16;

/** Pipeline slots: batch b+1 is prepared while batch b is applied. */
constexpr unsigned pipelineSlots = 2;

/**
 * Members per gang chunk: gangs larger than this run as successive
 * fixed-size chunks. A compile-time member count lets the apply
 * pass's member loop fully unroll with its accumulators in
 * registers, and four independent predictor chains already saturate
 * the out-of-order window.
 */
constexpr std::size_t gangChunk = 4;

/**
 * Tables whose counter array is at least this many entries get their
 * lines software-prefetched during prepare. Smaller tables live in
 * L1/L2 where the prefetch instructions cost more load-port slots
 * than the latency they hide — measured as a net loss on the paper's
 * 8KB configurations.
 */
constexpr std::size_t prefetchMinEntries = std::size_t{1} << 16;

/**
 * skewHinv with the width checks and masking hoisted out of the
 * per-record loop: @p x must already be below mask(bits) and @p bits
 * must be >= 2 (the caller branches to the library skewHinv for
 * degenerate one-entry banks). Kept branch-free and assert-free so
 * the elementwise index loops vectorize.
 */
inline std::uint64_t
skewHinvFast(std::uint64_t x, BitCount bits, std::uint64_t table_mask)
{
    const std::uint64_t msb = (x >> (bits - 1)) & 1;
    const std::uint64_t old_msb = (x >> (bits - 2)) & 1;
    return ((x << 1) & table_mask) | (msb ^ old_msb);
}

static_assert(ReplayBuffer::packedTakenBit == 0x8000'0000u,
              "takenOf reads the outcome from the packed word's top bit");

/** The outcome (0 or 1) of a packed gap/taken word. */
inline std::uint8_t
takenOf(std::uint32_t packed)
{
    return static_cast<std::uint8_t>(packed >> 31);
}

/** The PC index the predictors hash (the PC in instructions). */
inline std::uint64_t
pcIndexOf(Addr pc)
{
    return pc / instructionBytes;
}

/**
 * The columns of the batch one member prepares and applies next: up
 * to batchRecords records of its stream, in buffer order. A stream
 * that keeps every record points into the buffer's own columns; one
 * that drops records points at the copies its fill gathered.
 */
struct BatchColumns
{
    const Addr *pc = nullptr;
    const std::uint32_t *packed = nullptr; ///< gap | outcome words
    const std::uint32_t *site = nullptr;   ///< null without sites
    std::size_t count = 0;
};

/** Raw structure-of-arrays view of one CounterTable. */
struct LaneTable
{
    LaneTable() = default;

    explicit LaneTable(CounterTable &table)
        : cnt(table.counterData()), tags(table.tagData()),
          mask(table.indexMask()), src(&table),
          sink(table.attachedSink()), msb(table.counterMsb()),
          maxv(table.counterMax()),
          prefetch(table.indexMask() + 1 >= prefetchMinEntries)
    {
    }

    std::uint8_t *cnt = nullptr;
    Addr *tags = nullptr;
    std::size_t mask = 0;
    CounterTable *src = nullptr;
    ContextAliasSink *sink = nullptr;
    std::uint8_t msb = 0;
    std::uint8_t maxv = 0;
    bool prefetch = false;
};

/**
 * A batch state's collision accounting, one increment per applied
 * record. The record's key has one bit per table access that
 * collided (bi-mode's also records which direction table it chose);
 * the record increments the bucket of its key and its classification
 * bit, the bit the virtual loop classifies its collisions with (the
 * prediction's correctness, or agree's latched bias outcome). flush()
 * derives each CounterTable's lookups, collisions, constructive and
 * destructive counts from the buckets. These are integer sums of the
 * increments CounterTable::lookup and classify() make per access, so
 * the result is bit-identical, and the table's pending counter stays
 * zero, as after update().
 */
template <unsigned KeyBits>
class CollisionTally
{
  public:
    static constexpr std::uint32_t keys = 1u << KeyBits;

    void
    add(std::uint32_t key, bool correct)
    {
        ++buckets[(key << 1) | (correct ? 1u : 0u)];
    }

    /**
     * Credit @p table, whose collisions are key bit @p bit, with the
     * records whose key matches @p match under @p select (by default
     * every record: a table every apply looks up).
     */
    void
    flush(CounterTable &table, unsigned bit, std::uint32_t select = 0,
          std::uint32_t match = 0) const
    {
        CollisionStats &stats = table.statsRef();
        for (std::uint32_t key = 0; key < keys; ++key) {
            if ((key & select) != match)
                continue;
            const Count wrong = buckets[key << 1];
            const Count right = buckets[(key << 1) | 1];
            stats.lookups += wrong + right;
            if (((key >> bit) & 1) != 0) {
                stats.collisions += wrong + right;
                stats.constructive += right;
                stats.destructive += wrong;
            }
        }
    }

  private:
    Count buckets[2 * keys] = {};
};

/**
 * One table access's tag check and tag write, as CounterTable::lookup
 * makes them. @p WithSink instantiations also report a colliding
 * access to the table's ContextAliasSink, already classified with
 * @p correct (the record's classification bit, known at apply time);
 * the check is compiled out of every other loop.
 *
 * @return 1 when the access collided, else 0
 */
template <bool WithSink>
inline std::uint32_t
touchLane(const LaneTable &table, std::size_t index, Addr pc,
          bool correct)
{
    const Addr tag = table.tags[index];
    const std::uint32_t collided =
        static_cast<std::uint32_t>(tag != CounterTable::invalidTag) &
        static_cast<std::uint32_t>(tag != pc);
    if constexpr (WithSink) {
        if (collided != 0)
            table.sink->noteClassified(pc, tag, correct);
    } else {
        (void)correct;
    }
    table.tags[index] = pc;
    return collided;
}

/** What one applied record reports back to the driver. */
struct ApplyResult
{
    /** The prediction was correct. */
    bool correct;

    /** Table accesses that collided (the profile's count). */
    std::uint32_t collided;
};

/** How a predictor derives its table index. */
enum class IndexKind
{
    Pc,        ///< bimodal: masked PC index
    PcXorHist, ///< gshare: folded PC xor history
    HistOnly,  ///< ghist: masked history
};

/**
 * Shared history-shadow machinery: each state keeps the global
 * history in a register, advancing it per record with the same
 * policy/hint rules CombinedPredictor::updateHistory applies, and
 * syncs it back into the predictor at segment end.
 */
struct HistoryShadow
{
    template <typename P>
    explicit HistoryShadow(P &predictor)
    {
        const GlobalHistory &history = BatchTraits<P>::history(predictor);
        hist = history.value();
        histMask = mask(history.width());
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    advance(std::uint8_t taken, std::uint8_t code)
    {
        // Branchless on purpose: this runs inside the serial history
        // chain, where a data-dependent branch on hint presence would
        // put its mispredictions on the critical path. Selects
        // compile to cmov.
        bool bit = taken != 0;
        if constexpr (WithHints) {
            const bool present = (code & batch::hintPresentBit) != 0;
            if constexpr (Policy == ShiftPolicy::NoShift) {
                const std::uint64_t next =
                    ((hist << 1) | (bit ? 1 : 0)) & histMask;
                hist = present ? hist : next;
                return;
            } else if constexpr (Policy ==
                                 ShiftPolicy::ShiftPrediction) {
                const bool hinted =
                    (code & batch::hintTakenBit) != 0;
                bit = present ? hinted : bit;
            }
        } else {
            (void)code;
        }
        hist = ((hist << 1) | (bit ? 1 : 0)) & histMask;
    }

    std::uint64_t hist = 0;
    std::uint64_t histMask = 0;
};

/**
 * Batch state for the single-table predictors (bimodal, ghist,
 * gshare), differing only in how the index is derived.
 */
template <typename P, IndexKind Kind>
class TableState
{
  public:
    explicit TableState(P &predictor)
        : table(BatchTraits<P>::table(predictor))
    {
        if constexpr (Kind != IndexKind::Pc)
            shadow.emplace_back(predictor);
        idxBits = BatchTraits<P>::table(predictor).indexBits();
    }

    template <ShiftPolicy Policy, bool WithHints, bool WithSites>
    void
    prepare(unsigned slot, const BatchColumns &in,
            const std::uint8_t *codes, batch::SiteTables *tables)
    {
        const std::size_t count = in.count;
        [[maybe_unused]] const std::uint32_t *site = in.site;
        std::size_t *out = idx[slot];
        const std::size_t msk = table.mask;
        if constexpr (Kind == IndexKind::Pc) {
            (void)codes;
            // The masked PC index is cheap enough that apply()
            // recomputes it inline from the PC; prepare
            // only materializes indices when a big table wants its
            // lines prefetched.
            if (table.prefetch) {
                for (std::size_t i = 0; i < count; ++i) {
                    if constexpr (WithSites)
                        out[i] = tables->primary[site[i]] & msk;
                    else
                        out[i] = pcIndexOf(in.pc[i]) & msk;
                }
            }
        } else if constexpr (Kind == IndexKind::PcXorHist) {
            std::uint64_t hist[batchRecords];
            std::uint64_t fold[batchRecords];
            // Serial pass: a register-resident copy of the history
            // shadow carries the loop dependence (the heap-resident
            // member would round-trip through memory every record);
            // the site-table loads stay scalar on purpose (they are
            // L1-resident and beat gathered vector loads).
            HistoryShadow sh = shadow.front();
            for (std::size_t i = 0; i < count; ++i) {
                hist[i] = sh.hist;
                if constexpr (WithSites)
                    fold[i] = tables->primary[site[i]];
                else
                    fold[i] = foldBits(pcIndexOf(in.pc[i]), idxBits);
                sh.template advance<Policy, WithHints>(
                    takenOf(in.packed[i]), WithHints ? codes[site[i]] : 0);
            }
            shadow.front() = sh;
            // Elementwise pass: vectorizable across records.
            for (std::size_t i = 0; i < count; ++i)
                out[i] = (fold[i] ^ hist[i]) & msk;
        } else {
            HistoryShadow sh = shadow.front();
            for (std::size_t i = 0; i < count; ++i) {
                out[i] = sh.hist & msk;
                sh.template advance<Policy, WithHints>(
                    takenOf(in.packed[i]), WithHints ? codes[site[i]] : 0);
            }
            shadow.front() = sh;
        }
        if (table.prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&table.cnt[out[i]]);
                BPSIM_BATCH_PREFETCH(&table.tags[out[i]]);
            }
        }
    }

    template <bool WithSink>
    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const std::size_t k = Kind == IndexKind::Pc
                                  ? (pcIndexOf(pc) & table.mask)
                                  : idx[slot][i];
        const std::uint8_t counter = table.cnt[k];
        const bool prediction = satCounterTaken(counter, table.msb);
        const bool correct = prediction == taken;
        const std::uint32_t collided =
            touchLane<WithSink>(table, k, pc, correct);
        tally.add(collided, correct);
        table.cnt[k] = satCounterTrain(counter, taken, table.maxv);
        return {correct, collided};
    }

    void
    flushSegment(P &predictor)
    {
        tally.flush(*table.src, 0);
        if constexpr (Kind != IndexKind::Pc) {
            BatchTraits<P>::history(predictor).set(
                shadow.front().hist);
        }
    }

  private:
    LaneTable table;
    CollisionTally<1> tally;
    // Kept in a 0/1-sized vector so the Pc kind (bimodal, no history
    // member to read) never touches BatchTraits<P>::history.
    std::vector<HistoryShadow> shadow;
    BitCount idxBits = 0;
    std::size_t idx[pipelineSlots][batchRecords];
};

/** Batch state for the bi-mode predictor. */
class BiModeState
{
  public:
    explicit BiModeState(BiMode &predictor)
        : choice(BatchTraits<BiMode>::choice(predictor)),
          takenTable(BatchTraits<BiMode>::takenTable(predictor)),
          notTakenTable(BatchTraits<BiMode>::notTakenTable(predictor)),
          shadow(predictor),
          dirBits(
              BatchTraits<BiMode>::takenTable(predictor).indexBits())
    {
    }

    template <ShiftPolicy Policy, bool WithHints, bool WithSites>
    void
    prepare(unsigned slot, const BatchColumns &in,
            const std::uint8_t *codes, batch::SiteTables *tables)
    {
        const std::size_t count = in.count;
        [[maybe_unused]] const std::uint32_t *site = in.site;
        std::uint64_t hist[batchRecords];
        std::uint64_t fold[batchRecords];
        HistoryShadow sh = shadow;
        for (std::size_t i = 0; i < count; ++i) {
            hist[i] = sh.hist;
            if constexpr (WithSites) {
                choiceIdx[slot][i] =
                    tables->primary[site[i]] & choice.mask;
                fold[i] = tables->secondary[site[i]];
            } else {
                choiceIdx[slot][i] = pcIndexOf(in.pc[i]) & choice.mask;
                fold[i] = foldBits(pcIndexOf(in.pc[i]), dirBits);
            }
            sh.template advance<Policy, WithHints>(
                takenOf(in.packed[i]), WithHints ? codes[site[i]] : 0);
        }
        shadow = sh;
        for (std::size_t i = 0; i < count; ++i)
            dirIdx[slot][i] = (fold[i] ^ hist[i]) & takenTable.mask;
        if (choice.prefetch | takenTable.prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&choice.cnt[choiceIdx[slot][i]]);
                // The direction table is chosen by the choice counter
                // at apply time; pull the line of both candidates.
                BPSIM_BATCH_PREFETCH(&takenTable.cnt[dirIdx[slot][i]]);
                BPSIM_BATCH_PREFETCH(
                    &notTakenTable.cnt[dirIdx[slot][i]]);
            }
        }
    }

    template <bool WithSink>
    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const std::size_t kc = choiceIdx[slot][i];
        const std::size_t kd = dirIdx[slot][i];

        const std::uint8_t choiceCounter = choice.cnt[kc];
        const bool choseTaken =
            satCounterTaken(choiceCounter, choice.msb);
        LaneTable &selected = choseTaken ? takenTable : notTakenTable;

        const std::uint8_t dirCounter = selected.cnt[kd];
        const bool prediction = satCounterTaken(dirCounter, selected.msb);
        const bool correct = prediction == taken;

        // Key bits: 0 the choice access, 1 the direction access, and
        // choseTakenKey when that went to the taken table.
        const std::uint32_t choiceCollided =
            touchLane<WithSink>(choice, kc, pc, correct);
        const std::uint32_t dirCollided =
            touchLane<WithSink>(selected, kd, pc, correct);
        tally.add(choiceCollided | (dirCollided << 1) |
                      (choseTaken ? choseTakenKey : 0),
                  correct);

        // Partial update: only the selected direction table trains.
        selected.cnt[kd] = satCounterTrain(dirCounter, taken,
                                           selected.maxv);

        // Choice trains toward the outcome except when it opposed the
        // outcome but the selected direction table still got it right.
        const bool choiceOpposes = choseTaken != taken;
        const std::uint8_t trained =
            satCounterTrain(choiceCounter, taken, choice.maxv);
        choice.cnt[kc] =
            (choiceOpposes && correct) ? choiceCounter : trained;

        return {correct, choiceCollided + dirCollided};
    }

    void
    flushSegment(BiMode &predictor)
    {
        tally.flush(*choice.src, 0);
        tally.flush(*takenTable.src, 1, choseTakenKey, choseTakenKey);
        tally.flush(*notTakenTable.src, 1, choseTakenKey, 0);
        BatchTraits<BiMode>::history(predictor).set(shadow.hist);
    }

  private:
    static constexpr std::uint32_t choseTakenKey = 4;

    LaneTable choice;
    LaneTable takenTable;
    LaneTable notTakenTable;
    CollisionTally<3> tally;
    HistoryShadow shadow;
    BitCount dirBits;
    std::size_t choiceIdx[pipelineSlots][batchRecords];
    std::size_t dirIdx[pipelineSlots][batchRecords];
};

/** Batch state for the 2bcgskew predictor. */
class GskewState
{
  public:
    explicit GskewState(TwoBcGskew &predictor)
        : bim(BatchTraits<TwoBcGskew>::bim(predictor)),
          g0(BatchTraits<TwoBcGskew>::g0(predictor)),
          g1(BatchTraits<TwoBcGskew>::g1(predictor)),
          meta(BatchTraits<TwoBcGskew>::meta(predictor)),
          shadow(predictor),
          bankBits(
              BatchTraits<TwoBcGskew>::g0(predictor).indexBits()),
          metaBits(
              BatchTraits<TwoBcGskew>::meta(predictor).indexBits()),
          maskG0(mask(BatchTraits<TwoBcGskew>::histG0(predictor))),
          maskG1(mask(BatchTraits<TwoBcGskew>::histG1(predictor))),
          maskMeta(mask(BatchTraits<TwoBcGskew>::histMeta(predictor)))
    {
    }

    template <ShiftPolicy Policy, bool WithHints, bool WithSites>
    void
    prepare(unsigned slot, const BatchColumns &in,
            const std::uint8_t *codes, batch::SiteTables *tables)
    {
        const std::size_t count = in.count;
        [[maybe_unused]] const std::uint32_t *site = in.site;
        std::uint64_t a0[batchRecords];  // H(v1): bank-0 PC chain
        std::uint64_t a1x[batchRecords]; // H(H(v1)) ^ v1: bank-1 mix
        std::uint64_t v2a[batchRecords]; // folded history, g0 window
        std::uint64_t v2b[batchRecords]; // folded history, g1 window
        std::uint64_t mf[batchRecords];  // meta PC fold ^ history fold
        // Serial pass: history shadow, site-table loads (scalar on
        // purpose — L1-resident, beating gathered vector loads) and
        // the variable-width history folds. The shadow advances in a
        // register-resident copy, written back once per batch.
        HistoryShadow sh = shadow;
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t hist = sh.hist;
            if constexpr (WithSites) {
                bimIdx[slot][i] = tables->primary[site[i]] & bim.mask;
                a0[i] = tables->secondary[site[i]];
                a1x[i] = tables->tertiary[site[i]];
                mf[i] = tables->quaternary[site[i]];
            } else {
                bimIdx[slot][i] = pcIndexOf(in.pc[i]) & bim.mask;
                const std::uint64_t v1 =
                    foldBits(pcIndexOf(in.pc[i]), bankBits);
                a0[i] = skewH(v1, bankBits);
                a1x[i] = skewH(a0[i], bankBits) ^ v1;
                mf[i] = foldBits(pcIndexOf(in.pc[i]), metaBits);
            }
            v2a[i] = foldBits(hist & maskG0, bankBits);
            v2b[i] = foldBits(hist & maskG1, bankBits);
            mf[i] ^= foldBits(hist & maskMeta, metaBits);
            sh.template advance<Policy, WithHints>(
                takenOf(in.packed[i]), WithHints ? codes[site[i]] : 0);
        }
        shadow = sh;
        // Elementwise pass: vectorizable across records.
        // skewIndex(0, v1, v2) = H(v1) ^ Hinv(v2) ^ v2 and
        // skewIndex(1, v1, v2) = H(H(v1)) ^ Hinv(Hinv(v2)) ^ v1; the
        // PC chains are carried per site, the history chains here.
        if (bankBits >= 2) {
            for (std::size_t i = 0; i < count; ++i) {
                const std::uint64_t inv1 =
                    skewHinvFast(v2a[i], bankBits, g0.mask);
                g0Idx[slot][i] = (a0[i] ^ inv1 ^ v2a[i]) & g0.mask;
                const std::uint64_t inv2 = skewHinvFast(
                    skewHinvFast(v2b[i], bankBits, g1.mask), bankBits,
                    g1.mask);
                g1Idx[slot][i] = (a1x[i] ^ inv2) & g1.mask;
                metaIdx[slot][i] = mf[i] & meta.mask;
            }
        } else {
            // Degenerate one-bit banks (tiny test tables): use the
            // library Hinv, which handles width 1.
            for (std::size_t i = 0; i < count; ++i) {
                g0Idx[slot][i] =
                    (a0[i] ^ skewHinv(v2a[i], bankBits) ^ v2a[i]) &
                    g0.mask;
                g1Idx[slot][i] =
                    (a1x[i] ^ skewHinv(skewHinv(v2b[i], bankBits),
                                       bankBits)) &
                    g1.mask;
                metaIdx[slot][i] = mf[i] & meta.mask;
            }
        }
        if (bim.prefetch | g0.prefetch | meta.prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&bim.cnt[bimIdx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&g0.cnt[g0Idx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&g1.cnt[g1Idx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&meta.cnt[metaIdx[slot][i]]);
            }
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&bim.tags[bimIdx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&g0.tags[g0Idx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&g1.tags[g1Idx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&meta.tags[metaIdx[slot][i]]);
            }
        }
    }

    template <bool WithSink>
    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const std::size_t kb = bimIdx[slot][i];
        const std::size_t k0 = g0Idx[slot][i];
        const std::size_t k1 = g1Idx[slot][i];
        const std::size_t km = metaIdx[slot][i];

        const std::uint8_t cb = bim.cnt[kb];
        const std::uint8_t c0 = g0.cnt[k0];
        const std::uint8_t c1 = g1.cnt[k1];
        const std::uint8_t cm = meta.cnt[km];
        const bool bimPred = satCounterTaken(cb, bim.msb);
        const bool g0Pred = satCounterTaken(c0, g0.msb);
        const bool g1Pred = satCounterTaken(c1, g1.msb);
        const bool majority =
            (static_cast<int>(bimPred) + static_cast<int>(g0Pred) +
             static_cast<int>(g1Pred)) >= 2;
        const bool useMajority = satCounterTaken(cm, meta.msb);
        const bool prediction = useMajority ? majority : bimPred;
        const bool correct = prediction == taken;

        // Key bits 0..3: the bim, g0, g1 and meta accesses.
        const std::uint32_t key =
            touchLane<WithSink>(bim, kb, pc, correct) |
            (touchLane<WithSink>(g0, k0, pc, correct) << 1) |
            (touchLane<WithSink>(g1, k1, pc, correct) << 2) |
            (touchLane<WithSink>(meta, km, pc, correct) << 3);
        tally.add(key, correct);

        // Partial update as branchless masks: on a wrong overall
        // prediction all voting banks train; on a correct one only
        // the participants (majority voters, or the bimodal bank when
        // it alone was used) train.
        const bool trainBim =
            !correct || !useMajority || (bimPred == taken);
        const bool trainG0 =
            !correct || (useMajority && g0Pred == taken);
        const bool trainG1 =
            !correct || (useMajority && g1Pred == taken);
        bim.cnt[kb] =
            trainBim ? satCounterTrain(cb, taken, bim.maxv) : cb;
        g0.cnt[k0] = trainG0 ? satCounterTrain(c0, taken, g0.maxv) : c0;
        g1.cnt[k1] = trainG1 ? satCounterTrain(c1, taken, g1.maxv) : c1;

        // Meta trains only when the components disagree, toward
        // whichever was correct.
        const std::uint8_t metaTrained =
            satCounterTrain(cm, majority == taken, meta.maxv);
        meta.cnt[km] = (majority != bimPred) ? metaTrained : cm;

        return {correct, static_cast<std::uint32_t>(std::popcount(key))};
    }

    void
    flushSegment(TwoBcGskew &predictor)
    {
        tally.flush(*bim.src, 0);
        tally.flush(*g0.src, 1);
        tally.flush(*g1.src, 2);
        tally.flush(*meta.src, 3);
        BatchTraits<TwoBcGskew>::history(predictor).set(shadow.hist);
    }

  private:
    LaneTable bim;
    LaneTable g0;
    LaneTable g1;
    LaneTable meta;
    CollisionTally<4> tally;
    HistoryShadow shadow;
    BitCount bankBits;
    BitCount metaBits;
    std::uint64_t maskG0;
    std::uint64_t maskG1;
    std::uint64_t maskMeta;
    std::size_t bimIdx[pipelineSlots][batchRecords];
    std::size_t g0Idx[pipelineSlots][batchRecords];
    std::size_t g1Idx[pipelineSlots][batchRecords];
    std::size_t metaIdx[pipelineSlots][batchRecords];
};

/**
 * TAGE's history shadow: register-resident copies of the long history
 * (LongHistory's two storage words) and of every bank's three CSR
 * folds, advanced per record under HistoryShadow's hint and shift
 * policy rules with the arithmetic of LongHistory::push and
 * FoldedHistory::update, and synced back at segment end.
 */
class TageShadow
{
  public:
    static constexpr unsigned banks = Tage::numBanks;

    /** Folds per bank, in BatchTraits<Tage>::fold order: index, tag,
     * shifted tag. */
    static constexpr unsigned foldsPerBank = 3;
    static constexpr unsigned folds = banks * foldsPerBank;

    explicit TageShadow(Tage &predictor)
    {
        const LongHistory &history =
            BatchTraits<Tage>::history(predictor);
        lo = history.word(0);
        hi = history.word(1);
        const BitCount width = history.width();
        loMask = width <= 64 ? mask(width) : ~std::uint64_t{0};
        hiMask = width <= 64 ? ~std::uint64_t{0} : mask(width - 64);
        for (unsigned w = 0; w < foldsPerBank; ++w) {
            for (unsigned b = 0; b < banks; ++b) {
                const FoldedHistory &fold =
                    BatchTraits<Tage>::fold(predictor, b, w);
                const unsigned j = w * banks + b;
                comp[j] = fold.value();
                compLen[j] = fold.foldedBits();
                outPoint[j] = fold.windowBits() % fold.foldedBits();
                compMask[j] = mask(fold.foldedBits());
            }
        }
    }

    /** Bank @p b's index fold. */
    std::uint64_t indexFold(unsigned b) const { return comp[b]; }

    /** Bank @p b's tag material: tag fold ^ (shifted tag fold << 1). */
    std::uint64_t
    tagFold(unsigned b) const
    {
        return comp[banks + b] ^ (comp[2 * banks + b] << 1);
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    advance(std::uint8_t taken, std::uint8_t code)
    {
        // Branchless like HistoryShadow::advance: a NoShift hint keeps
        // every word through selects rather than a branch.
        bool bit = taken != 0;
        bool shift = true;
        if constexpr (WithHints) {
            const bool present = (code & batch::hintPresentBit) != 0;
            if constexpr (Policy == ShiftPolicy::NoShift) {
                shift = !present;
            } else if constexpr (Policy ==
                                 ShiftPolicy::ShiftPrediction) {
                const bool hinted =
                    (code & batch::hintTakenBit) != 0;
                bit = present ? hinted : bit;
            }
        } else {
            (void)code;
        }
        const std::uint64_t in = bit ? 1 : 0;
        // Each bank's folds drop the outcome leaving its window.
        std::uint64_t out[banks];
#pragma GCC unroll 4
        for (unsigned b = 0; b < banks; ++b) {
            const BitCount pos = Tage::historyLengths[b] - 1;
            out[b] = (pos < 64 ? lo >> pos : hi >> (pos - 64)) & 1;
        }
        const std::uint64_t next_lo = ((lo << 1) | in) & loMask;
        const std::uint64_t next_hi = ((hi << 1) | (lo >> 63)) & hiMask;
        lo = shift ? next_lo : lo;
        hi = shift ? next_hi : hi;
        // Unrolled so each fold keeps its own register chain at -O2.
#pragma GCC unroll 12
        for (unsigned j = 0; j < folds; ++j) {
            std::uint64_t next = (comp[j] << 1) | in;
            next ^= out[j % banks] << outPoint[j];
            next ^= next >> compLen[j];
            next &= compMask[j];
            comp[j] = shift ? next : comp[j];
        }
    }

    void
    flush(Tage &predictor) const
    {
        BatchTraits<Tage>::history(predictor).setWords(lo, hi);
        for (unsigned w = 0; w < foldsPerBank; ++w) {
            for (unsigned b = 0; b < banks; ++b)
                BatchTraits<Tage>::fold(predictor, b, w)
                    .set(comp[w * banks + b]);
        }
    }

  private:
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t loMask = 0;
    std::uint64_t hiMask = 0;
    std::uint64_t comp[folds] = {};
    std::uint64_t compMask[folds] = {};
    BitCount compLen[folds] = {};
    BitCount outPoint[folds] = {};
};

/**
 * Batch state for TAGE. Prepare carries the base index and every
 * bank's index and tag; apply reads each bank's tag match at apply
 * time (an earlier record's allocation may have rewritten it) and
 * then performs Tage::update()'s provider/alternate selection, useful
 * update, training, allocation and aging on the member's own update
 * count.
 */
class TageState
{
  public:
    static constexpr unsigned banks = Tage::numBanks;
    static_assert(Tage::tagBits == 8, "carried tags are bytes");

    explicit TageState(Tage &predictor)
        : owner(predictor), shadow(predictor),
          bankBits(BatchTraits<Tage>::bank(predictor, 0).indexBits()),
          weakTaken(SatCounter::weak(Tage::predBits, true).value()),
          weakNotTaken(SatCounter::weak(Tage::predBits, false).value())
    {
        // Slot 0 is the base table, slot 1 + b bank b. The banks share
        // one width, so one PC fold per record serves all four.
        lanes[0] = LaneTable(BatchTraits<Tage>::base(predictor));
        for (unsigned b = 0; b < banks; ++b) {
            CounterTable &bank = BatchTraits<Tage>::bank(predictor, b);
            bpsim_assert(bank.indexBits() == bankBits,
                         "tage banks must share one width");
            lanes[1 + b] = LaneTable(bank);
            tags[b] = BatchTraits<Tage>::tags(predictor, b);
            useful[b] = BatchTraits<Tage>::useful(predictor, b);
        }
    }

    template <ShiftPolicy Policy, bool WithHints, bool WithSites>
    void
    prepare(unsigned slot, const BatchColumns &in,
            const std::uint8_t *codes, batch::SiteTables *tables)
    {
        const std::size_t count = in.count;
        [[maybe_unused]] const std::uint32_t *site = in.site;
        std::uint64_t pc_fold[batchRecords];
        std::uint64_t tag_pc_fold[batchRecords];
        std::uint64_t index_fold[banks][batchRecords];
        std::uint64_t tag_fold[banks][batchRecords];
        std::size_t *base_out = idx[slot][0];
        // Serial pass: the history shadow (a register-resident copy,
        // written back once per batch) and the site-table loads.
        TageShadow sh = shadow;
        for (std::size_t i = 0; i < count; ++i) {
            if constexpr (WithSites) {
                base_out[i] = tables->primary[site[i]] & lanes[0].mask;
                pc_fold[i] = tables->secondary[site[i]];
                tag_pc_fold[i] = tables->tertiary[site[i]];
            }
#pragma GCC unroll 4
            for (unsigned b = 0; b < banks; ++b) {
                index_fold[b][i] = sh.indexFold(b);
                tag_fold[b][i] = sh.tagFold(b);
            }
            sh.template advance<Policy, WithHints>(
                takenOf(in.packed[i]), WithHints ? codes[site[i]] : 0);
        }
        shadow = sh;
        // Elementwise passes: vectorizable across records.
        if constexpr (!WithSites) {
            for (std::size_t i = 0; i < count; ++i) {
                base_out[i] = pcIndexOf(in.pc[i]) & lanes[0].mask;
                pc_fold[i] = foldBits(pcIndexOf(in.pc[i]), bankBits);
                tag_pc_fold[i] = foldBits(pcIndexOf(in.pc[i]), Tage::tagBits);
            }
        }
        for (unsigned b = 0; b < banks; ++b) {
            for (std::size_t i = 0; i < count; ++i) {
                idx[slot][1 + b][i] =
                    (pc_fold[i] ^ index_fold[b][i]) & lanes[1 + b].mask;
                tag[slot][b][i] = static_cast<std::uint8_t>(
                    tag_pc_fold[i] ^ tag_fold[b][i]);
            }
        }
        if (lanes[0].prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&lanes[0].cnt[base_out[i]]);
                BPSIM_BATCH_PREFETCH(&lanes[0].tags[base_out[i]]);
            }
        }
        if (lanes[1].prefetch) {
            for (unsigned b = 0; b < banks; ++b) {
                for (std::size_t i = 0; i < count; ++i) {
                    const std::size_t k = idx[slot][1 + b][i];
                    BPSIM_BATCH_PREFETCH(&lanes[1 + b].cnt[k]);
                    BPSIM_BATCH_PREFETCH(&lanes[1 + b].tags[k]);
                    BPSIM_BATCH_PREFETCH(&tags[b][k]);
                }
            }
        }
    }

    template <bool WithSink>
    BPSIM_BATCH_INLINE ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        // Bit s of hits/preds describes slot s; the base always hits.
        // The slot loops are unrolled, so each bit's shift is a
        // constant rather than a loop counter held in a register.
        std::size_t k[1 + banks];
        std::uint8_t c[1 + banks];
        unsigned hits = 1;
        unsigned preds = 0;
#pragma GCC unroll 5
        for (unsigned s = 0; s <= banks; ++s) {
            k[s] = idx[slot][s][i];
            c[s] = lanes[s].cnt[k[s]];
            preds |= static_cast<unsigned>(
                         satCounterTaken(c[s], lanes[s].msb))
                     << s;
        }
#pragma GCC unroll 4
        for (unsigned b = 0; b < banks; ++b) {
            hits |= static_cast<unsigned>(tags[b][k[1 + b]] ==
                                          tag[slot][b][i])
                    << (1 + b);
        }
        // Provider: the longest matching bank, else the base.
        // Alternate: the next-longest match, else the base.
        const unsigned provider =
            static_cast<unsigned>(std::bit_width(hits)) - 1;
        const unsigned alternate =
            static_cast<unsigned>(
                std::bit_width((hits & ~(1u << provider)) | 1u)) -
            1;
        const bool prediction = ((preds >> provider) & 1) != 0;
        const bool alt_prediction = ((preds >> alternate) & 1) != 0;
        const bool correct = prediction == taken;

        // Key bit s: slot s's access.
        std::uint32_t key = 0;
#pragma GCC unroll 5
        for (unsigned s = 0; s <= banks; ++s)
            key |= touchLane<WithSink>(lanes[s], k[s], pc, correct) << s;
        tally.add(key, correct);

        // The useful counter moves only when provider and alternate
        // disagreed, toward whichever was right.
        if (provider > 0 && prediction != alt_prediction) {
            std::uint8_t &u = useful[provider - 1][k[provider]];
            if (prediction == taken)
                u += u < Tage::usefulMax ? 1 : 0;
            else
                u -= u > 0 ? 1 : 0;
        }
        lanes[provider].cnt[k[provider]] = satCounterTrain(
            c[provider], taken, lanes[provider].maxv);

        // Banks longer than the provider are slots provider + 1 ..
        // banks, i.e. banks provider .. banks - 1.
        if (!correct && provider < banks)
            allocate(provider, k, tag[slot], i, taken);

        BatchTraits<Tage>::countUpdate(owner);
        return {correct, static_cast<std::uint32_t>(std::popcount(key))};
    }

    void
    flushSegment(Tage &predictor)
    {
        for (unsigned s = 0; s <= banks; ++s)
            tally.flush(*lanes[s].src, s);
        shadow.flush(predictor);
    }

  private:
    /** Tage::allocate over the carried indices and tags. */
    void
    allocate(unsigned first, const std::size_t *k,
             const std::uint8_t (*record_tags)[batchRecords],
             std::size_t i, bool taken)
    {
        for (unsigned b = first; b < banks; ++b) {
            const std::size_t entry = k[1 + b];
            if (useful[b][entry] == 0) {
                tags[b][entry] = record_tags[b][i];
                lanes[1 + b].cnt[entry] =
                    taken ? weakTaken : weakNotTaken;
                ++BatchTraits<Tage>::allocations(owner);
                return;
            }
        }
        // Every candidate is protected: decay them all.
        for (unsigned b = first; b < banks; ++b) {
            std::uint8_t &u = useful[b][k[1 + b]];
            u -= u > 0 ? 1 : 0;
        }
    }

    LaneTable lanes[1 + banks];
    CollisionTally<1 + banks> tally;
    std::uint8_t *tags[banks] = {};
    std::uint8_t *useful[banks] = {};
    Tage &owner;
    TageShadow shadow;
    BitCount bankBits;
    std::uint8_t weakTaken;
    std::uint8_t weakNotTaken;
    std::size_t idx[pipelineSlots][1 + banks][batchRecords];
    std::uint8_t tag[pipelineSlots][banks][batchRecords];
};

/**
 * Batch state for the hashed perceptron. Prepare carries the eight
 * weight indices (history slices folded with fixed slice counts and
 * the per-table salts computed once here); apply sums the weights and
 * trains them under the threshold rule.
 */
class PerceptronState
{
  public:
    static constexpr unsigned tableCount = HashedPerceptron::numTables;

    explicit PerceptronState(HashedPerceptron &predictor)
        : shadow(predictor),
          bits(BatchTraits<HashedPerceptron>::table(predictor, 0)
                   .indexBits()),
          threshold(BatchTraits<HashedPerceptron>::threshold(predictor))
    {
        for (unsigned t = 0; t < tableCount; ++t) {
            CounterTable &table =
                BatchTraits<HashedPerceptron>::table(predictor, t);
            bpsim_assert(table.indexBits() == bits,
                         "perceptron tables must share one width");
            lanes[t] = LaneTable(table);
            const BitCount feature = HashedPerceptron::featureBits[t];
            historyMask[t] = mask(feature);
            // The slices foldBits() would XOR, as a fixed count: the
            // index loops then carry no data-dependent branch and
            // vectorize across records.
            historySlices[t] = (feature + bits - 1) / bits;
            // HashedPerceptron::tableIndex's salt; the bias table
            // (t = 0) keeps the plain PC index.
            salt[t] = t == 0 ? 0 : foldBits(mix64(t), bits);
        }
    }

    template <ShiftPolicy Policy, bool WithHints, bool WithSites>
    void
    prepare(unsigned slot, const BatchColumns &in,
            const std::uint8_t *codes, batch::SiteTables *tables)
    {
        const std::size_t count = in.count;
        [[maybe_unused]] const std::uint32_t *site = in.site;
        // Zero past count: the elementwise loops below run the full
        // batch width, a compile-time trip count they vectorize at.
        std::uint64_t hist[batchRecords] = {};
        std::uint64_t pc_fold[batchRecords] = {};
        HistoryShadow sh = shadow;
        for (std::size_t i = 0; i < count; ++i) {
            hist[i] = sh.hist;
            if constexpr (WithSites)
                pc_fold[i] = tables->primary[site[i]];
            sh.template advance<Policy, WithHints>(
                takenOf(in.packed[i]), WithHints ? codes[site[i]] : 0);
        }
        shadow = sh;
        if constexpr (!WithSites) {
            for (std::size_t i = 0; i < count; ++i)
                pc_fold[i] = foldBits(pcIndexOf(in.pc[i]), bits);
        }
        // Elementwise, slice-major so each inner loop vectorizes
        // across records.
        for (unsigned t = 0; t < tableCount; ++t) {
            std::uint64_t acc[batchRecords];
            for (std::size_t i = 0; i < batchRecords; ++i)
                acc[i] = pc_fold[i] ^ salt[t];
            for (unsigned k = 0; k < historySlices[t]; ++k) {
                const BitCount shift = k * bits;
                for (std::size_t i = 0; i < batchRecords; ++i)
                    acc[i] ^= (hist[i] & historyMask[t]) >> shift;
            }
            for (std::size_t i = 0; i < batchRecords; ++i)
                idx[slot][t][i] = acc[i] & lanes[t].mask;
        }
        if (lanes[0].prefetch) {
            for (unsigned t = 0; t < tableCount; ++t) {
                for (std::size_t i = 0; i < count; ++i) {
                    BPSIM_BATCH_PREFETCH(&lanes[t].cnt[idx[slot][t][i]]);
                    BPSIM_BATCH_PREFETCH(
                        &lanes[t].tags[idx[slot][t][i]]);
                }
            }
        }
    }

    template <bool WithSink>
    BPSIM_BATCH_INLINE ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        std::uint8_t weight[tableCount];
        int sum = 0;
        for (unsigned t = 0; t < tableCount; ++t) {
            weight[t] = lanes[t].cnt[idx[slot][t][i]];
            sum += static_cast<int>(weight[t]) -
                   HashedPerceptron::weightBias;
        }
        const bool correct = (sum >= 0) == taken;

        // Key bit t: table t's access. Unrolled, so each bit's shift
        // is a constant rather than a loop counter held in a register.
        std::uint32_t key = 0;
#pragma GCC unroll 8
        for (unsigned t = 0; t < tableCount; ++t)
            key |= touchLane<WithSink>(lanes[t], idx[slot][t][i], pc,
                                       correct)
                   << t;
        tally.add(key, correct);

        const int magnitude = sum < 0 ? -sum : sum;
        const bool train = !correct || magnitude <= threshold;
        for (unsigned t = 0; t < tableCount; ++t) {
            lanes[t].cnt[idx[slot][t][i]] =
                train ? satCounterTrain(weight[t], taken, lanes[t].maxv)
                      : weight[t];
        }
        return {correct, static_cast<std::uint32_t>(std::popcount(key))};
    }

    void
    flushSegment(HashedPerceptron &predictor)
    {
        for (unsigned t = 0; t < tableCount; ++t)
            tally.flush(*lanes[t].src, t);
        BatchTraits<HashedPerceptron>::history(predictor).set(shadow.hist);
    }

  private:
    LaneTable lanes[tableCount];
    CollisionTally<tableCount> tally;
    HistoryShadow shadow;
    BitCount bits;
    int threshold;
    std::uint64_t historyMask[tableCount] = {};
    unsigned historySlices[tableCount] = {};
    std::uint64_t salt[tableCount] = {};
    std::size_t idx[pipelineSlots][tableCount][batchRecords];
};

/**
 * Batch state for the agree predictor. Prepare is gshare's (the
 * per-site PC fold XORed with the history shadow) and also carries
 * each record's site, whose slot of the pass's bias array apply reads
 * at apply time: a first execution earlier in the same batch may have
 * latched it. Apply replays Agree::predict and update: the prediction
 * uses bias "not taken" before the first execution; the table's
 * collisions, like update()'s classify(), are classified with the
 * freshly latched bias bit; the counter trains toward "the outcome
 * agreed with the latched bit".
 */
class AgreeState
{
  public:
    explicit AgreeState(Agree &predictor)
        : owner(predictor), table(BatchTraits<Agree>::table(predictor)),
          shadow(predictor)
    {
    }

    template <ShiftPolicy Policy, bool WithHints, bool WithSites>
    void
    prepare(unsigned slot, const BatchColumns &in,
            const std::uint8_t *codes, batch::SiteTables *tables)
    {
        const std::size_t count = in.count;
        [[maybe_unused]] const std::uint32_t *site = in.site;
        static_assert(WithSites, "agree's bias bits are site-indexed");
        bias = tables->bias.data();
        std::uint64_t hist[batchRecords];
        std::uint64_t fold[batchRecords];
        HistoryShadow sh = shadow;
        for (std::size_t i = 0; i < count; ++i) {
            hist[i] = sh.hist;
            fold[i] = tables->primary[site[i]];
            siteOf[slot][i] = site[i];
            sh.template advance<Policy, WithHints>(
                takenOf(in.packed[i]), WithHints ? codes[site[i]] : 0);
        }
        shadow = sh;
        for (std::size_t i = 0; i < count; ++i)
            idx[slot][i] = (fold[i] ^ hist[i]) & table.mask;
        if (table.prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&table.cnt[idx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&table.tags[idx[slot][i]]);
            }
        }
    }

    template <bool WithSink>
    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const std::size_t k = idx[slot][i];
        const std::uint8_t counter = table.cnt[k];
        const bool agrees = satCounterTaken(counter, table.msb);
        std::uint8_t &code = bias[siteOf[slot][i]];
        const bool assigned = code != 0;
        const bool bit = (code & batch::biasTakenBit) != 0;
        const bool correct = (agrees == bit) == taken;
        if (!assigned) {
            // First execution: latch the outcome into both homes.
            code = batch::biasLatchedBit |
                   (taken ? batch::biasTakenBit : 0);
            BatchTraits<Agree>::biasBits(owner).emplace(pc, taken);
        }
        const bool latched = assigned ? bit : taken;
        const bool classified = (agrees == latched) == taken;
        const std::uint32_t collided =
            touchLane<WithSink>(table, k, pc, classified);
        tally.add(collided, classified);
        table.cnt[k] =
            satCounterTrain(counter, taken == latched, table.maxv);
        return {correct, collided};
    }

    void
    flushSegment(Agree &predictor)
    {
        tally.flush(*table.src, 0);
        BatchTraits<Agree>::history(predictor).set(shadow.hist);
    }

  private:
    Agree &owner;
    LaneTable table;
    CollisionTally<1> tally;
    HistoryShadow shadow;
    std::uint8_t *bias = nullptr;
    std::size_t idx[pipelineSlots][batchRecords];
    std::uint32_t siteOf[pipelineSlots][batchRecords];
};

/** The batch state class handling predictor type @p P. */
template <typename P>
struct StateFor;

template <> struct StateFor<Bimodal>
{
    using type = TableState<Bimodal, IndexKind::Pc>;
};

template <> struct StateFor<Ghist>
{
    using type = TableState<Ghist, IndexKind::HistOnly>;
};

template <> struct StateFor<Gshare>
{
    using type = TableState<Gshare, IndexKind::PcXorHist>;
};

template <> struct StateFor<BiMode>
{
    using type = BiModeState;
};

template <> struct StateFor<TwoBcGskew>
{
    using type = GskewState;
};

template <> struct StateFor<Tage>
{
    using type = TageState;
};

template <> struct StateFor<HashedPerceptron>
{
    using type = PerceptronState;
};

template <> struct StateFor<Agree>
{
    using type = AgreeState;
};

/**
 * One member's record stream over a segment [start, end): the records
 * its predictor sees, in buffer order, handed out a full batch at a
 * time from the member's own cursor. Given @p drop_codes (the hint
 * codes of a member under NoShift, whose hinted records touch neither
 * its tables nor its history) the fill skips every record of a hinted
 * site and gathers the kept records' columns; otherwise the stream
 * keeps every record and its batches view the buffer's columns in
 * place.
 */
class RecordStream
{
  public:
    RecordStream(const ReplayBuffer &buffer, const std::uint32_t *site_of,
                 const std::uint8_t *drop_codes, Count start, Count end)
        : pcs(buffer.pcData()), packed(buffer.packedData()),
          siteOf(site_of), dropCodes(drop_codes), cursor(start), end(end)
    {
    }

    /** Fill slot @p slot with the next batch (empty once dry). */
    const BatchColumns &
    fill(unsigned slot)
    {
        if (dropCodes != nullptr)
            return fillDropping(slot);
        BatchColumns &out = slots[slot];
        const std::size_t count = static_cast<std::size_t>(
            std::min<Count>(batchRecords, end - cursor));
        out.pc = pcs + cursor;
        out.packed = packed + cursor;
        out.site = siteOf != nullptr ? siteOf + cursor : nullptr;
        out.count = count;
        cursor += count;
        return out;
    }

    /** The batch last filled into slot @p slot. */
    const BatchColumns &columns(unsigned slot) const { return slots[slot]; }

  private:
    /**
     * fill() for a stream that drops the hinted sites' records. Kept
     * out of line: inlined into the driver, it crowds the apply
     * loop's registers.
     */
    BPSIM_BATCH_NOINLINE const BatchColumns &
    fillDropping(unsigned slot)
    {
        // Branch-free scan: each record's index is written, and the
        // write position moves past it only when its site is unhinted.
        // The kept records' columns are gathered afterwards, so a
        // dropped record costs two loads and a store.
        std::size_t kept = 0;
        Count r = cursor;
        while (r < end) {
            record[kept] = r;
            kept += (dropCodes[siteOf[r]] & batch::hintPresentBit) == 0
                        ? 1
                        : 0;
            ++r;
            if (kept == batchRecords)
                break;
        }
        cursor = r;
        for (std::size_t i = 0; i < kept; ++i) {
            const Count at = record[i];
            pcCopy[slot][i] = pcs[at];
            packedCopy[slot][i] = packed[at];
            siteCopy[slot][i] = siteOf[at];
        }
        BatchColumns &out = slots[slot];
        out.pc = pcCopy[slot];
        out.packed = packedCopy[slot];
        out.site = siteCopy[slot];
        out.count = kept;
        return out;
    }

    const Addr *pcs;
    const std::uint32_t *packed;
    const std::uint32_t *siteOf;
    const std::uint8_t *dropCodes;
    Count cursor;
    Count end;
    BatchColumns slots[pipelineSlots];
    Count record[batchRecords];
    Addr pcCopy[pipelineSlots][batchRecords];
    std::uint32_t packedCopy[pipelineSlots][batchRecords];
    std::uint32_t siteCopy[pipelineSlots][batchRecords];
};

/**
 * The batch driver: step @p N same-type members through records
 * [start, end), each over its own RecordStream, software pipelined one
 * batch deep. While batch b is applied, every member's batch b+1 is
 * already filled and prepared, so the prepare pass's work (and any
 * prefetches) overlaps batch b's apply work. A member fills full
 * batches of the records it applies, so prepare runs at full width
 * however many records the member drops. The apply pass is
 * record-major over the members' batches, position by position, so
 * the members' mutually independent dependent chains (counter load ->
 * predict -> train -> store) overlap in the out-of-order window. @p N
 * is the compile-time member count (callers chunk larger gangs), so
 * the member loops fully unroll and the per-member accumulators are
 * register-resident fixed arrays.
 *
 * A statically hinted record neither consults nor trains the dynamic
 * predictor. Under NoShift it leaves the history alone too, so a
 * hinted member's stream drops it at fill; under the shifting
 * policies it still advances the history shadow in prepare, and
 * apply skips it. The kernels count nothing for it: the exec settles
 * hinted sites from the window's per-site outcome totals. Every other
 * stat equals the per-record increments of simulate() exactly
 * (integer sums in a different grouping), and per member the applied
 * records are the oracle's dynamic ones in buffer order, so the table
 * and history evolution is identical. A lone member may also
 * accumulate its site-indexed @p profiles for the records it applies
 * (@p WithDense) and report its colliding lookups, classified, to its
 * tables' ContextAliasSink (@p WithSink), both as simulate() records
 * them. @p applied_out, when given, accumulates each member's applied
 * records.
 */
template <typename P, ShiftPolicy Policy, bool WithSites, bool WithDense,
          bool WithSink, std::size_t N>
void
runStreamLoop(P *const *predictors, batch::SiteTables *const *site_tables,
              const std::uint8_t *const *hint_codes,
              SimStats *const *stats, Count *applied_out,
              const ReplayBuffer &buffer, const std::uint32_t *site_of,
              BranchProfile *profiles, Count start, Count end)
{
    static_assert(N == 1 || !(WithDense || WithSink),
                  "a profiling or attributed sim runs alone");
    constexpr bool Shifting = Policy != ShiftPolicy::NoShift;
    static_assert(WithSites || !Shifting, "hint codes are per site");
    using State = typename StateFor<P>::type;

    const std::uint8_t *codes[N];
    std::vector<State> states;
    std::vector<RecordStream> streams;
    states.reserve(N);
    streams.reserve(N);
    for (std::size_t m = 0; m < N; ++m) {
        codes[m] = hint_codes != nullptr ? hint_codes[m] : nullptr;
        states.emplace_back(*predictors[m]);
        streams.emplace_back(buffer, site_of,
                             Shifting ? nullptr : codes[m], start, end);
    }
    State *const st = states.data();
    RecordStream *const rs = streams.data();

    Count mispredictions[N]{};
    Count applied[N]{};

    const auto fillAndPrepare = [&](std::size_t m, unsigned slot) {
        const BatchColumns &in = rs[m].fill(slot);
        if (in.count > 0) {
            st[m].template prepare<Policy, Shifting, WithSites>(
                slot, in, codes[m],
                WithSites ? site_tables[m] : nullptr);
        }
    };

    for (std::size_t m = 0; m < N; ++m)
        fillAndPrepare(m, 0);
    for (unsigned cur = 0;; cur ^= 1) {
        // Register copies of the batch views: apply's byte stores may
        // alias anything, which would reload them per record.
        BatchColumns in[N];
        std::size_t longest = 0;
        for (std::size_t m = 0; m < N; ++m) {
            in[m] = rs[m].columns(cur);
            longest = std::max(longest, in[m].count);
            applied[m] += in[m].count;
        }
        if (longest == 0)
            break;
        for (std::size_t m = 0; m < N; ++m)
            fillAndPrepare(m, cur ^ 1);
        for (std::size_t i = 0; i < longest; ++i) {
            for (std::size_t m = 0; m < N; ++m) {
                if (i >= in[m].count)
                    continue;
                if constexpr (Shifting) {
                    if ((codes[m][in[m].site[i]] &
                         batch::hintPresentBit) != 0) {
                        --applied[m];
                        continue;
                    }
                }
                const bool taken = takenOf(in[m].packed[i]) != 0;
                const ApplyResult result =
                    st[m].template apply<WithSink>(cur, i, in[m].pc[i],
                                                   taken);
                mispredictions[m] += !result.correct;
                if constexpr (WithDense) {
                    BranchProfile &profile = profiles[in[m].site[i]];
                    ++profile.executed;
                    profile.taken += taken ? 1 : 0;
                    ++profile.predicted;
                    profile.correct += result.correct ? 1 : 0;
                    profile.collisions += result.collided;
                }
            }
        }
    }

    // Every member measures the whole segment, hinted records included.
    const std::uint32_t *packed = buffer.packedData();
    Count instructions = 0;
    for (Count r = start; r < end; ++r)
        instructions += packed[r] & ~ReplayBuffer::packedTakenBit;
    for (std::size_t m = 0; m < N; ++m) {
        SimStats &out = *stats[m];
        out.branches += end - start;
        out.instructions += instructions;
        out.mispredictions += mispredictions[m];
        if (applied_out != nullptr)
            applied_out[m] += applied[m];
        st[m].flushSegment(*predictors[m]);
    }
}

/** Invoke @p fn with @p policy as a compile-time constant. */
template <typename Fn>
void
withPolicy(ShiftPolicy policy, const Fn &fn)
{
    switch (policy) {
      case ShiftPolicy::NoShift:
        fn(std::integral_constant<ShiftPolicy, ShiftPolicy::NoShift>{});
        break;
      case ShiftPolicy::ShiftOutcome:
        fn(std::integral_constant<ShiftPolicy,
                                  ShiftPolicy::ShiftOutcome>{});
        break;
      case ShiftPolicy::ShiftPrediction:
        fn(std::integral_constant<ShiftPolicy,
                                  ShiftPolicy::ShiftPrediction>{});
        break;
    }
}

/** Run one gang chunk of compile-time size through the stream loop. */
template <typename P, std::size_t N>
void
dispatchGangChunk(const batch::GangArgs<P> &args, std::size_t offset)
{
    withPolicy(args.policy, [&](auto policy_tag) {
        runStreamLoop<P, decltype(policy_tag)::value, true, false, false,
                      N>(
            args.predictors + offset, args.siteTables + offset,
            args.hintCodes + offset, args.stats + offset,
            args.applied != nullptr ? args.applied + offset : nullptr,
            *args.buffer, args.siteOf, nullptr, args.from, args.to);
    });
}

/**
 * Run one solo segment under a compile-time shift policy. Only the
 * three profile/sink combinations a solo sim can have are stamped
 * out: a profile, a sink, or both (a scenario evaluation).
 */
template <typename P, ShiftPolicy Policy>
void
dispatchSolo(const batch::SoloArgs<P> &args)
{
    P *predictor = args.predictor;
    batch::SiteTables *tables = args.siteTables;
    const std::uint8_t *codes = args.hintCodes;
    SimStats *stats = args.stats;
    const auto run = [&](auto dense_tag, auto sink_tag) {
        runStreamLoop<P, Policy, true, decltype(dense_tag)::value,
                      decltype(sink_tag)::value, 1>(
            &predictor, &tables, &codes, &stats, nullptr, *args.buffer,
            args.siteOf, args.profiles, args.from, args.to);
    };
    if (args.sink == nullptr)
        run(std::true_type{}, std::false_type{});
    else if (args.profiles == nullptr)
        run(std::false_type{}, std::true_type{});
    else
        run(std::true_type{}, std::true_type{});
}

} // namespace

template <typename P>
void
runGangBatch(const batch::GangArgs<P> &args)
{
    // Gangs larger than gangChunk run as successive fixed-size
    // chunks (each member still sees every record in order exactly
    // once); the compile-time chunk size keeps the apply pass's
    // member loop unrolled with register-resident accumulators.
    std::size_t offset = 0;
    while (offset < args.n) {
        const std::size_t rest = args.n - offset;
        switch (std::min(rest, gangChunk)) {
          case 1:
            dispatchGangChunk<P, 1>(args, offset);
            offset += 1;
            break;
          case 2:
            dispatchGangChunk<P, 2>(args, offset);
            offset += 2;
            break;
          case 3:
            dispatchGangChunk<P, 3>(args, offset);
            offset += 3;
            break;
          default:
            dispatchGangChunk<P, 4>(args, offset);
            offset += 4;
            break;
        }
    }
}

template <typename P>
void
runSoloBatch(const batch::SoloArgs<P> &args)
{
    bpsim_assert(args.profiles != nullptr || args.sink != nullptr,
                 "a solo segment needs a profile or a sink");
    bpsim_assert(args.hintCodes != nullptr ||
                     args.policy == ShiftPolicy::NoShift,
                 "a shifting policy needs hints");
    withPolicy(args.policy, [&](auto policy_tag) {
        dispatchSolo<P, decltype(policy_tag)::value>(args);
    });
}

template <typename P>
void
runPlainBatch(const batch::PlainArgs<P> &args)
{
    if constexpr (batch::needsSiteIndex<P>) {
        (void)args;
        bpsim_panic("a type with per-site state runs over a site index");
    } else {
        P *predictor = args.predictor;
        SimStats *stats = args.stats;
        runStreamLoop<P, ShiftPolicy::NoShift, false, false, false, 1>(
            &predictor, nullptr, nullptr, &stats, nullptr, *args.buffer,
            nullptr, nullptr, args.from, args.to);
    }
}

// Every kernel-visited type: a type the engine visits without a
// StateFor specialization fails to compile here.
#define BPSIM_INSTANTIATE_BATCH_KERNELS(P)                             \
    template void runGangBatch<P>(const batch::GangArgs<P> &);         \
    template void runSoloBatch<P>(const batch::SoloArgs<P> &);         \
    template void runPlainBatch<P>(const batch::PlainArgs<P> &);
BPSIM_KERNEL_PREDICTORS(BPSIM_INSTANTIATE_BATCH_KERNELS)
#undef BPSIM_INSTANTIATE_BATCH_KERNELS

} // namespace BPSIM_BATCH_NS
} // namespace bpsim

#undef BPSIM_BATCH_PREFETCH
#undef BPSIM_BATCH_INLINE
#undef BPSIM_BATCH_NOINLINE
