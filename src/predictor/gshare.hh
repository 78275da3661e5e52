/**
 * @file
 * The gshare predictor (McFarling [7]): counter table indexed by the
 * XOR of the branch address and the global history.
 */

#ifndef BPSIM_PREDICTOR_GSHARE_HH
#define BPSIM_PREDICTOR_GSHARE_HH

#include <cstddef>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"
#include "support/bits.hh"

namespace bpsim
{

/**
 * Address-xor-history indexed predictor. The base dynamic predictor
 * of the paper's Figures 1-6 sweep.
 *
 * The per-branch protocol is implemented by the inline *Step methods
 * below; the virtual BranchPredictor interface forwards to them, and
 * the devirtualized replay kernels (core/engine simulateReplay) call
 * them directly so the measured loop contains no indirect calls.
 */
class Gshare : public BranchPredictor
{
  public:
    /**
     * @param size_bytes   hardware budget
     * @param history_bits global history length; 0 = match the index
     *                     width (the classic configuration)
     * @param counter_bits counter width (default 2)
     */
    explicit Gshare(std::size_t size_bytes, BitCount history_bits = 0,
                    BitCount counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "gshare"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        table.setAliasSink(sink);
    }

    /** History length in use. */
    BitCount historyBits() const { return history.width(); }

    /** Non-virtual predict(); see class comment. */
    bool
    predictStep(Addr pc)
    {
        lastIndex = index(pc);
        return table.lookup(lastIndex, pc).taken();
    }

    /** Non-virtual update(); see class comment. */
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

    std::size_t
    index(Addr pc) const
    {
        return static_cast<std::size_t>(hashPcHistoryXor(
            pc / instructionBytes, history.value(), table.indexBits()));
    }

    CounterTable table;
    GlobalHistory history;
    std::size_t lastIndex = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_GSHARE_HH
