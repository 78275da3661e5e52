/**
 * @file
 * The agree predictor (Sprangle, Chappell, Alsup & Patt, ISCA 1997),
 * discussed in §3 of the paper as the main *dynamic* alternative for
 * converting destructive aliasing into constructive aliasing.
 *
 * Each branch carries a "bias bit" — its predicted steady direction,
 * set the first time the branch executes (the original paper's
 * simplest policy; a compiler could also set it from a profile). The
 * gshare-indexed counter table then predicts whether the branch will
 * *agree* with its bias bit rather than whether it is taken. Two
 * branches sharing a counter usually both agree with their own bias
 * bits, so the shared counter trains in one direction: the collision
 * becomes constructive.
 *
 * Implemented here as an extension for comparison against the
 * paper's static scheme; it is not part of allPredictorKinds() (the
 * paper's five simulated schemes) but is constructible through the
 * factory as "agree", and the batch replay kernels run it (its bias
 * bits mirrored onto a per-site array for each pass).
 */

#ifndef BPSIM_PREDICTOR_AGREE_HH
#define BPSIM_PREDICTOR_AGREE_HH

#include <cstddef>
#include <unordered_map>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"

namespace bpsim
{

/** Gshare-indexed agree predictor with first-time bias bits. */
class Agree : public BranchPredictor
{
  public:
    /**
     * @param size_bytes   counter-table budget; the per-branch bias
     *                     bits are architectural state (they ride in
     *                     the instruction/BTB entry, like the paper's
     *                     static hint bits) and are not counted
     * @param counter_bits agree-counter width (default 2)
     */
    explicit Agree(std::size_t size_bytes, BitCount counter_bits = 2);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "agree"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        table.setAliasSink(sink);
    }

    /** Number of branches with an assigned bias bit. */
    std::size_t biasBitCount() const { return biasBits.size(); }

  private:
    template <typename> friend struct BatchTraits;

    std::size_t index(Addr pc) const;

    CounterTable table;
    GlobalHistory history;
    std::unordered_map<Addr, bool> biasBits;

    std::size_t lastIndex = 0;
    bool lastBias = false;
    bool lastHadBias = false;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_AGREE_HH
