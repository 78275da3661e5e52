/**
 * @file
 * The YAGS predictor (Eden & Mudge, MICRO 1998) — extension.
 *
 * Yet Another Global Scheme attacks destructive aliasing from the
 * opposite direction to the paper's static hints: a PC-indexed
 * bimodal choice table captures each branch's bias, and two small
 * *tagged* direction caches (one consulted for bias-taken branches,
 * one for bias-not-taken) store only the exceptions — the
 * (pc, history) cases where a branch deviates from its bias. Tags
 * mean an exception entry is used only by the branch that created
 * it, so biased branches stop destroying each other's state.
 *
 * Included alongside agree/bi-mode so the library covers the full
 * family of dynamic anti-aliasing schemes the paper positions itself
 * against.
 */

#ifndef BPSIM_PREDICTOR_YAGS_HH
#define BPSIM_PREDICTOR_YAGS_HH

#include <cstddef>
#include <vector>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"

namespace bpsim
{

/** YAGS: bimodal choice plus tagged exception caches. */
class Yags : public BranchPredictor
{
  public:
    /**
     * @param size_bytes total budget; half goes to the choice table,
     *                   a quarter to each exception cache (whose
     *                   entries carry @p tag_bits of partial tag next
     *                   to a 2-bit counter)
     * @param tag_bits   partial tag width (default 6, as in the
     *                   original paper's evaluation)
     */
    explicit Yags(std::size_t size_bytes, BitCount tag_bits = 6);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "yags"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        choice.setAliasSink(sink);
    }

    /** Entries in each exception cache. */
    std::size_t cacheEntries() const { return takenCache.size(); }

  private:
    /** One tagged exception entry. */
    struct CacheEntry
    {
        SatCounter counter{2, 1};
        std::uint16_t tag = 0;
        bool valid = false;
    };

    std::size_t choiceIndex(Addr pc) const;
    std::size_t cacheIndex(Addr pc) const;
    std::uint16_t tagOf(Addr pc) const;

    CounterTable choice;
    std::vector<CacheEntry> takenCache;
    std::vector<CacheEntry> notTakenCache;
    GlobalHistory history;
    BitCount tagBits;
    BitCount cacheIndexBits;

    // Lookup state latched by predict() for update().
    std::size_t lastChoiceIdx = 0;
    std::size_t lastCacheIdx = 0;
    bool lastChoiceTaken = false;
    bool lastCacheHit = false;
    bool lastPrediction = false;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_YAGS_HH
