/**
 * @file
 * The bi-mode predictor (Lee, Chen & Mudge [9]): two gshare direction
 * tables steered by a bimodal choice table.
 */

#ifndef BPSIM_PREDICTOR_BIMODE_HH
#define BPSIM_PREDICTOR_BIMODE_HH

#include <cstddef>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"
#include "support/bits.hh"

namespace bpsim
{

/**
 * Bi-mode hybrid. The PC-indexed choice table routes mostly-taken
 * branches to one gshare-indexed direction table and mostly-not-taken
 * branches to the other, so branches of opposite bias cannot destroy
 * each other's counters. Partial update policy as in the paper:
 * only the selected direction table trains, and the choice table
 * trains unless it disagreed with the outcome while the selected
 * direction table was nonetheless correct.
 *
 * Budget split: half the counters form the choice table, a quarter
 * each the two direction tables. The direction tables use as many
 * history bits as their index requires (the paper's §2 convention for
 * its bi-mode simulations).
 *
 * The inline *Step methods are the non-virtual per-branch protocol
 * used by the devirtualized replay kernels; the virtual interface
 * forwards to them.
 */
class BiMode : public BranchPredictor
{
  public:
    /** @param size_bytes total hardware budget across all tables. */
    explicit BiMode(std::size_t size_bytes, BitCount counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "bimode"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        choice.setAliasSink(sink);
        takenTable.setAliasSink(sink);
        notTakenTable.setAliasSink(sink);
    }

    /** Non-virtual predict(). */
    bool
    predictStep(Addr pc)
    {
        lastChoiceIndex = choice.indexFor(pc / instructionBytes);
        lastDirectionIndex = directionIndex(pc);

        lastChoseTaken =
            choice.lookup(lastChoiceIndex, pc).taken();
        CounterTable &direction =
            lastChoseTaken ? takenTable : notTakenTable;
        lastPrediction =
            direction.lookup(lastDirectionIndex, pc).taken();
        return lastPrediction;
    }

    /** Non-virtual update(): the paper's partial-update policy. */
    void
    updateStep(Addr pc, bool taken)
    {
        (void)pc;
        const bool correct = lastPrediction == taken;

        CounterTable &selected =
            lastChoseTaken ? takenTable : notTakenTable;

        CounterTable &unselected =
            lastChoseTaken ? notTakenTable : takenTable;
        selected.classify(correct);
        unselected.classify(correct);
        choice.classify(correct);

        // Partial update: only the selected direction table trains.
        selected.entry(lastDirectionIndex).train(taken);

        // Choice trains toward the outcome except when it opposed the
        // outcome but the selected direction table still got it right.
        const bool choice_opposes = lastChoseTaken != taken;
        if (!(choice_opposes && correct))
            choice.entry(lastChoiceIndex).train(taken);
    }

    /** Non-virtual updateHistory(). */
    void historyStep(bool taken) { history.push(taken); }

    /** Non-virtual lastPredictCollisions(). */
    Count
    pendingStep() const
    {
        return choice.pending() + takenTable.pending() +
               notTakenTable.pending();
    }

  private:
    template <typename> friend struct BatchTraits;

    std::size_t
    directionIndex(Addr pc) const
    {
        return static_cast<std::size_t>(
            hashPcHistoryXor(pc / instructionBytes, history.value(),
                             takenTable.indexBits()));
    }

    CounterTable choice;
    CounterTable takenTable;
    CounterTable notTakenTable;
    GlobalHistory history;

    // Lookup state latched by predict() for update().
    std::size_t lastChoiceIndex = 0;
    std::size_t lastDirectionIndex = 0;
    bool lastChoseTaken = false;
    bool lastPrediction = false;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_BIMODE_HH
