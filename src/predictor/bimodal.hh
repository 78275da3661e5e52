/**
 * @file
 * The classic bimodal branch predictor (Smith 1981, [17] in the
 * paper): a PC-indexed table of 2-bit saturating counters.
 */

#ifndef BPSIM_PREDICTOR_BIMODAL_HH
#define BPSIM_PREDICTOR_BIMODAL_HH

#include <cstddef>

#include "predictor/counter_table.hh"
#include "predictor/predictor.hh"

namespace bpsim
{

/**
 * PC-indexed table of saturating counters. Captures per-branch bias;
 * essentially alias-free beyond ~2 KB on SPEC-sized programs, which
 * is why the paper finds Static_95 useless for it.
 *
 * The inline *Step methods are the non-virtual per-branch protocol
 * used by the devirtualized replay kernels; the virtual interface
 * forwards to them.
 */
class Bimodal : public BranchPredictor
{
  public:
    /**
     * @param size_bytes   hardware budget; must yield a power-of-two
     *                     entry count
     * @param counter_bits counter width (default 2)
     */
    explicit Bimodal(std::size_t size_bytes, BitCount counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "bimodal"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        table.setAliasSink(sink);
    }

    /** Non-virtual predict(). */
    bool
    predictStep(Addr pc)
    {
        lastIndex = table.indexFor(pc / instructionBytes);
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

    /** Non-virtual updateHistory(): bimodal keeps no history. */
    void historyStep(bool) {}

    /** Non-virtual lastPredictCollisions(). */
    Count pendingStep() const { return table.pending(); }

  private:
    template <typename> friend struct BatchTraits;

    CounterTable table;
    std::size_t lastIndex = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_BIMODAL_HH
