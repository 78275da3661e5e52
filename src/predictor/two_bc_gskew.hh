/**
 * @file
 * The 2bcgskew predictor (Seznec & Michaud [2]).
 *
 * Structure per the paper's §2 description: a bimodal bank (BIM) that
 * is both a stand-alone component and a vote in the e-gskew component;
 * two gshare-style banks (G0, G1) with skewed indexing functions; the
 * e-gskew prediction is the majority of {BIM, G0, G1}; a gshare-
 * indexed meta bank chooses between the bimodal prediction and the
 * majority vote. Partial update policy:
 *
 *  - on a bad overall prediction all three voting banks train;
 *  - on a correct one only the banks that participated in the correct
 *    prediction train;
 *  - the meta bank trains only when the two components disagree,
 *    toward whichever was correct.
 */

#ifndef BPSIM_PREDICTOR_TWO_BC_GSKEW_HH
#define BPSIM_PREDICTOR_TWO_BC_GSKEW_HH

#include <cstddef>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"
#include "support/bits.hh"
#include "support/skew.hh"

namespace bpsim
{

/**
 * 2bcgskew hybrid predictor; four equal banks of 2-bit counters.
 *
 * The inline *Step methods are the non-virtual per-branch protocol
 * used by the devirtualized replay kernels; the virtual interface
 * forwards to them.
 */
class TwoBcGskew : public BranchPredictor
{
  public:
    /**
     * @param size_bytes   total budget across the four banks
     * @param hist_g0      history bits for bank G0 (0 = auto: half
     *                     the bank index width)
     * @param hist_g1      history bits for bank G1 (0 = auto: the
     *                     bank index width)
     * @param hist_meta    history bits for the meta bank (0 = auto:
     *                     half the bank index width)
     *
     * The auto defaults implement the paper's "best history lengths
     * per size" selection: a short-history and a long-history skewed
     * bank; the ablation bench sweeps these.
     */
    explicit TwoBcGskew(std::size_t size_bytes, BitCount hist_g0 = 0,
                        BitCount hist_g1 = 0, BitCount hist_meta = 0);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "2bcgskew"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        bim.setAliasSink(sink);
        g0.setAliasSink(sink);
        g1.setAliasSink(sink);
        meta.setAliasSink(sink);
    }

    /** Configured history lengths (G0, G1, meta). */
    BitCount histG0Bits() const { return histG0; }
    BitCount histG1Bits() const { return histG1; }
    BitCount histMetaBits() const { return histMeta; }

    /** Non-virtual predict(). */
    bool
    predictStep(Addr pc)
    {
        last.bimIdx = bimIndex(pc);
        last.g0Idx = skewedIndex(0, pc, histG0);
        last.g1Idx = skewedIndex(1, pc, histG1);
        last.metaIdx = metaIndex(pc);

        last.bimPred = bim.lookup(last.bimIdx, pc).taken();
        last.g0Pred = g0.lookup(last.g0Idx, pc).taken();
        last.g1Pred = g1.lookup(last.g1Idx, pc).taken();

        const int votes = (last.bimPred ? 1 : 0) +
                          (last.g0Pred ? 1 : 0) +
                          (last.g1Pred ? 1 : 0);
        last.majority = votes >= 2;

        last.useMajority = meta.lookup(last.metaIdx, pc).taken();
        last.finalPred = last.useMajority ? last.majority : last.bimPred;
        return last.finalPred;
    }

    /** Non-virtual update(): the paper's partial-update policy. */
    void
    updateStep(Addr pc, bool taken)
    {
        (void)pc;
        const bool correct = last.finalPred == taken;

        bim.classify(correct);
        g0.classify(correct);
        g1.classify(correct);
        meta.classify(correct);

        if (!correct) {
            // Bad overall prediction: retrain all three voting banks.
            bim.entry(last.bimIdx).train(taken);
            g0.entry(last.g0Idx).train(taken);
            g1.entry(last.g1Idx).train(taken);
        } else if (last.useMajority) {
            // Correct via the majority vote: strengthen only the
            // banks that voted with the (correct) majority.
            if (last.bimPred == taken)
                bim.entry(last.bimIdx).train(taken);
            if (last.g0Pred == taken)
                g0.entry(last.g0Idx).train(taken);
            if (last.g1Pred == taken)
                g1.entry(last.g1Idx).train(taken);
        } else {
            // Correct via the bimodal component alone.
            bim.entry(last.bimIdx).train(taken);
        }

        // Meta trains only when the components disagree, toward
        // whichever was correct.
        if (last.majority != last.bimPred)
            meta.entry(last.metaIdx).train(last.majority == taken);
    }

    /** Non-virtual updateHistory(). */
    void historyStep(bool taken) { history.push(taken); }

    /** Non-virtual lastPredictCollisions(). */
    Count
    pendingStep() const
    {
        return bim.pending() + g0.pending() + g1.pending() +
               meta.pending();
    }

  private:
    template <typename> friend struct BatchTraits;

    std::size_t
    bimIndex(Addr pc) const
    {
        return bim.indexFor(pc / instructionBytes);
    }

    std::size_t
    skewedIndex(unsigned bank, Addr pc, BitCount hist_bits) const
    {
        const BitCount bits = g0.indexBits();
        const std::uint64_t v1 = foldBits(pc / instructionBytes, bits);
        const std::uint64_t v2 =
            foldBits(history.recent(hist_bits), bits);
        return static_cast<std::size_t>(skewIndex(bank, v1, v2, bits));
    }

    std::size_t
    metaIndex(Addr pc) const
    {
        const BitCount bits = meta.indexBits();
        const std::uint64_t v1 = foldBits(pc / instructionBytes, bits);
        const std::uint64_t v2 = foldBits(history.recent(histMeta), bits);
        return meta.indexFor(v1 ^ v2);
    }

    CounterTable bim;
    CounterTable g0;
    CounterTable g1;
    CounterTable meta;
    GlobalHistory history;

    BitCount histG0;
    BitCount histG1;
    BitCount histMeta;

    // Lookup state latched by predict() for update().
    struct LookupState
    {
        std::size_t bimIdx = 0;
        std::size_t g0Idx = 0;
        std::size_t g1Idx = 0;
        std::size_t metaIdx = 0;
        bool bimPred = false;
        bool g0Pred = false;
        bool g1Pred = false;
        bool majority = false;
        bool useMajority = false;
        bool finalPred = false;
    } last;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_TWO_BC_GSKEW_HH
