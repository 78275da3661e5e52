/**
 * @file
 * The gselect predictor (extension): McFarling's concatenation
 * variant, where the table index is formed from low branch-address
 * bits concatenated with recent global history instead of gshare's
 * XOR. Included because it brackets gshare in the classic design
 * space and makes the indexing-scheme dimension of the aliasing
 * problem (Sprangle's technique #2) directly measurable.
 */

#ifndef BPSIM_PREDICTOR_GSELECT_HH
#define BPSIM_PREDICTOR_GSELECT_HH

#include <cstddef>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"

namespace bpsim
{

/** Address++history concatenation-indexed predictor. */
class Gselect : public BranchPredictor
{
  public:
    /**
     * @param size_bytes   hardware budget
     * @param history_bits history bits in the index (0 = half the
     *                     index width, the classic balanced split)
     * @param counter_bits counter width (default 2)
     */
    explicit Gselect(std::size_t size_bytes, BitCount history_bits = 0,
                     BitCount counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "gselect"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        table.setAliasSink(sink);
    }

    /** History bits participating in the index. */
    BitCount historyBits() const { return history.width(); }

  private:
    std::size_t index(Addr pc) const;

    CounterTable table;
    GlobalHistory history;
    std::size_t lastIndex = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_GSELECT_HH
