/**
 * @file
 * Hashed perceptron predictor (Jiménez & Lin's perceptron with
 * Tarjan & Skadron's hashed-weight organization).
 *
 * Eight weight tables, each indexed by a hash of the branch address
 * and a different-length slice of the global history (0..64 bits;
 * length 0 is the bias table). The prediction is the sign of the sum
 * of the selected weights; training adjusts every selected weight by
 * +/-1 toward the outcome when the prediction was wrong or the sum's
 * magnitude was below the training threshold.
 *
 * Weights live in 8-bit CounterTables using a biased representation
 * (stored value - 128 = signed weight), so the existing
 * structure-of-arrays storage and §5 collision instrumentation apply
 * unchanged: a tag mismatch on a weight lookup is exactly the
 * cross-branch weight sharing whose constructive/destructive split
 * the experiment reports.
 */

#ifndef BPSIM_PREDICTOR_PERCEPTRON_HH
#define BPSIM_PREDICTOR_PERCEPTRON_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "predictor/counter_table.hh"
#include "predictor/global_history.hh"
#include "predictor/predictor.hh"
#include "support/bits.hh"

namespace bpsim
{

/** Hashed perceptron. */
class HashedPerceptron : public BranchPredictor
{
  public:
    /** Weight tables (one history-slice feature each). */
    static constexpr unsigned numTables = 8;

    /** History bits feeding each table's index hash. */
    static constexpr std::array<BitCount, numTables> featureBits = {
        0, 2, 4, 8, 16, 32, 48, 64};

    /** Stored weight value representing zero (bias encoding). */
    static constexpr int weightBias = 128;

    /** @param size_bytes hardware budget (one byte per weight). */
    explicit HashedPerceptron(std::size_t size_bytes);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "perceptron"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        for (CounterTable &table : tables)
            table.setAliasSink(sink);
    }

    /**
     * @name Introspection for the property tests
     */
    ///@{
    /** Entries per weight table. */
    std::size_t tableEntries() const { return tables[0].entries(); }

    /** Training threshold theta. */
    int threshold() const { return trainingThreshold; }

    /** Weight sum latched by the last predict. */
    int lastSum() const { return last.sum; }

    /** Signed weight of table @p t, entry @p idx. */
    int weightAt(unsigned t, std::size_t idx) const;
    ///@}

  private:
    template <typename> friend struct BatchTraits;

    std::size_t
    tableIndex(unsigned t, std::uint64_t pc_index) const
    {
        const BitCount bits = tables[t].indexBits();
        const std::uint64_t hist =
            foldBits(history.recent(featureBits[t]), bits);
        // mix64 of the table number decorrelates tables that share a
        // history slice width with their neighbors (t = 0 keeps the
        // plain PC index so the bias table is a true per-branch bias).
        const std::uint64_t salt =
            t == 0 ? 0 : foldBits(mix64(t), bits);
        return tables[t].indexFor(foldBits(pc_index, bits) ^ hist ^
                                  salt);
    }

    std::vector<CounterTable> tables;
    GlobalHistory history;
    int trainingThreshold;

    // Lookup state latched by predict() for update().
    struct LookupState
    {
        std::array<std::size_t, numTables> idx{};
        int sum = 0;
        bool finalPred = false;
    } last;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_PERCEPTRON_HH
