/**
 * @file
 * Alpha 21264-style tournament predictor (extension).
 *
 * The paper comes out of the Alpha Development Group, so the
 * production Alpha predictor is the natural sixth scheme to compare
 * against: a local component (per-branch history table feeding a
 * table of 3-bit counters) and a global component (ghist-indexed
 * 2-bit counters), arbitrated by a ghist-indexed choice table.
 *
 * Sizing keeps the 21264's table ratios (local-history entries =
 * global entries / 4, 10-bit local histories, 3-bit local counters):
 * the canonical 21264 configuration (1K x 10b + 1K x 3b + 4K x 2b +
 * 4K x 2b = 3712 bytes) corresponds to a ~4 KB budget here, and other
 * budgets scale the tables by powers of two.
 */

#ifndef BPSIM_PREDICTOR_TOURNAMENT_HH
#define BPSIM_PREDICTOR_TOURNAMENT_HH

#include <cstddef>
#include <vector>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"

namespace bpsim
{

/** Local/global tournament predictor. */
class Tournament : public BranchPredictor
{
  public:
    /** @param size_bytes total budget across all four structures. */
    explicit Tournament(std::size_t size_bytes);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "tournament"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        localCounters.setAliasSink(sink);
        global.setAliasSink(sink);
        choice.setAliasSink(sink);
    }

    /** Entries in the per-branch local history table. */
    std::size_t localHistoryEntries() const
    {
        return localHistories.size();
    }

    /** Entries in each of the global and choice tables. */
    std::size_t globalEntries() const { return global.entries(); }

  private:
    std::size_t localHistIndex(Addr pc) const;

    /** Bits of local history kept per branch. */
    static constexpr BitCount localHistoryBits = 10;

    std::vector<std::uint16_t> localHistories;
    CounterTable localCounters; ///< 3-bit, indexed by local history
    CounterTable global;        ///< 2-bit, indexed by ghist
    CounterTable choice;        ///< 2-bit, indexed by ghist
    GlobalHistory history;

    // Lookup state latched by predict() for update().
    std::size_t lastLocalHistIdx = 0;
    std::size_t lastLocalIdx = 0;
    std::size_t lastGlobalIdx = 0;
    bool lastLocalPred = false;
    bool lastGlobalPred = false;
    bool lastChoseGlobal = false;
    bool lastPrediction = false;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_TOURNAMENT_HH
