/**
 * @file
 * The 'ghist' (GAg) predictor: a counter table indexed purely by the
 * global branch-history register.
 */

#ifndef BPSIM_PREDICTOR_GHIST_HH
#define BPSIM_PREDICTOR_GHIST_HH

#include <cstddef>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"

namespace bpsim
{

/**
 * Pure global-history predictor (GAg in Yeh & Patt's taxonomy).
 * Captures branch correlation but aliases heavily: every branch at a
 * given history shares one counter, which makes it the predictor that
 * benefits most from statically removing biased branches.
 *
 * The inline *Step methods are the non-virtual per-branch protocol
 * used by the devirtualized replay kernels; the virtual interface
 * forwards to them.
 */
class Ghist : public BranchPredictor
{
  public:
    /**
     * @param size_bytes   hardware budget
     * @param counter_bits counter width (default 2)
     */
    explicit Ghist(std::size_t size_bytes, BitCount counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "ghist"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        table.setAliasSink(sink);
    }

    /** History length in use (== index width). */
    BitCount historyBits() const { return table.indexBits(); }

    /** Non-virtual predict(). */
    bool
    predictStep(Addr pc)
    {
        lastIndex = table.indexFor(history.value());
        return table.lookup(lastIndex, pc).taken();
    }

    /** Non-virtual update(). */
    void
    updateStep(Addr pc, bool taken)
    {
        (void)pc;
        auto counter = table.entry(lastIndex);
        table.classify(counter.taken() == taken);
        counter.train(taken);
    }

    /** Non-virtual updateHistory(). */
    void historyStep(bool taken) { history.push(taken); }

    /** Non-virtual lastPredictCollisions(). */
    Count pendingStep() const { return table.pending(); }

  private:
    template <typename> friend struct BatchTraits;

    CounterTable table;
    GlobalHistory history;
    std::size_t lastIndex = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_GHIST_HH
