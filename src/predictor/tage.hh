/**
 * @file
 * TAGE-style tagged-geometric predictor (Seznec & Michaud's PPM-like
 * layout; exemplar constants per SNIPPETS.md §3).
 *
 * A bimodal base table backs four partially tagged banks indexed by
 * geometrically growing history lengths (10/20/40/80). Each bank
 * entry carries a 3-bit prediction counter, an 8-bit tag and a 2-bit
 * useful counter. The prediction provider is the longest-history bank
 * whose tag matches, falling back to the base; the alternate
 * prediction is the next-longest match. On a misprediction a new
 * entry is allocated in a longer bank whose useful counter is zero
 * (decaying the useful counters of the candidates when none is free),
 * and useful counters age periodically so stale entries can be
 * reclaimed — the tag+useful mechanism is TAGE's own answer to the
 * destructive aliasing this paper attacks with static hints, which is
 * exactly why the scheme matrix gets re-run over it.
 */

#ifndef BPSIM_PREDICTOR_TAGE_HH
#define BPSIM_PREDICTOR_TAGE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "predictor/counter_table.hh"
#include "predictor/long_history.hh"
#include "predictor/predictor.hh"
#include "support/bits.hh"

namespace bpsim
{

/** Tagged-geometric predictor. */
class Tage : public BranchPredictor
{
  public:
    /** Tagged banks backing the bimodal base. */
    static constexpr unsigned numBanks = 4;

    /** Geometric history lengths, shortest bank first. */
    static constexpr std::array<BitCount, numBanks> historyLengths = {
        10, 20, 40, 80};

    /** Tag width per bank entry. */
    static constexpr BitCount tagBits = 8;

    /** Prediction counter widths (SNIPPETS.md §3: PRED_MAX 7). */
    static constexpr BitCount predBits = 3;

    /** Useful-counter width (saturates at 3). */
    static constexpr std::uint8_t usefulMax = 3;

    /**
     * @param size_bytes hardware budget, split evenly between the
     *                   base table and the tagged banks
     * @param age_period updates between useful-counter aging passes
     *                   (halving); tests shrink it to make aging
     *                   observable
     */
    explicit Tage(std::size_t size_bytes,
                  Count age_period = Count{1} << 18);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "tage"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        base.setAliasSink(sink);
        for (Bank &bank : banks)
            bank.pred.setAliasSink(sink);
    }

    /**
     * @name Introspection for the property tests
     */
    ///@{
    /** Base-table entries. */
    std::size_t baseEntries() const { return base.entries(); }

    /** Entries in tagged bank @p b. */
    std::size_t bankEntries(unsigned b) const;

    /** History length of bank @p b. */
    BitCount bankHistoryBits(unsigned b) const;

    /** Provider bank of the last predict (-1 = bimodal base). */
    int lastProvider() const { return last.provider; }

    /** Index/tag/hit latched for bank @p b by the last predict. */
    std::size_t lastBankIndex(unsigned b) const;
    std::uint8_t lastBankTag(unsigned b) const;
    bool lastBankHit(unsigned b) const;

    /** Stored tag / useful counter of bank @p b, entry @p idx. */
    std::uint8_t tagAt(unsigned b, std::size_t idx) const;
    std::uint8_t usefulAt(unsigned b, std::size_t idx) const;

    /** Entries allocated / aging passes run so far. */
    Count allocationCount() const { return allocations; }
    Count agingPasses() const { return agingEvents; }

    /** The incremental index fold of bank @p b (round-trip tests
     * compare it against FoldedHistory::recompute). */
    const FoldedHistory &bankIndexFold(unsigned b) const;

    /** The long history register (for fold round-trip tests). */
    const LongHistory &longHistory() const { return history; }
    ///@}

  private:
    template <typename> friend struct BatchTraits;

    struct Bank
    {
        CounterTable pred;
        std::vector<std::uint8_t> tags;
        std::vector<std::uint8_t> useful;
        FoldedHistory idxFold;
        FoldedHistory tagFold1;
        FoldedHistory tagFold2;

        Bank(std::size_t entries, std::uint8_t initial)
            : pred(entries, predBits, initial), tags(entries, 0),
              useful(entries, 0)
        {
        }
    };

    std::size_t
    bankIndex(unsigned b, std::uint64_t pc_index) const
    {
        const Bank &bank = banks[b];
        return bank.pred.indexFor(
            foldBits(pc_index, bank.pred.indexBits()) ^
            bank.idxFold.value());
    }

    std::uint8_t
    bankTag(unsigned b, std::uint64_t pc_index) const
    {
        const Bank &bank = banks[b];
        return static_cast<std::uint8_t>(
            (foldBits(pc_index, tagBits) ^ bank.tagFold1.value() ^
             (bank.tagFold2.value() << 1)) &
            mask(tagBits));
    }

    /** Steal an entry in a bank longer than the provider: the first
     * candidate with a zero useful counter gets it (initialized to
     * the weak counter of the outcome); when every candidate is
     * protected, their useful counters decay instead. */
    void allocate(bool taken);

    /** Halve every useful counter (periodic aging). */
    void ageUseful();

    CounterTable base;
    std::vector<Bank> banks;
    LongHistory history;

    Count agePeriod;
    Count updatesSinceAging = 0;
    Count allocations = 0;
    Count agingEvents = 0;

    // Lookup state latched by predict() for update().
    struct LookupState
    {
        std::size_t baseIdx = 0;
        std::array<std::size_t, numBanks> idx{};
        std::array<std::uint8_t, numBanks> tag{};
        std::array<bool, numBanks> hit{};
        std::array<bool, numBanks> pred{};
        bool basePred = false;
        bool altPred = false;
        bool finalPred = false;
        int provider = -1;
    } last;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_TAGE_HH
