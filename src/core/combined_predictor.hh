/**
 * @file
 * The combined static/dynamic predictor — the mechanism the paper
 * evaluates.
 *
 * Branches carrying a static hint are predicted by the hint and never
 * touch the dynamic predictor's tables (relieving aliasing); all other
 * branches are predicted and trained dynamically. What the global
 * history register sees for statically predicted branches is governed
 * by a ShiftPolicy, reproducing the paper's Table 4 experiment.
 */

#ifndef BPSIM_CORE_COMBINED_PREDICTOR_HH
#define BPSIM_CORE_COMBINED_PREDICTOR_HH

#include <memory>

#include "predictor/predictor.hh"
#include "staticsel/static_hint.hh"

namespace bpsim
{

/**
 * What statically predicted branches contribute to the dynamic
 * predictor's global history register.
 */
enum class ShiftPolicy
{
    /** Nothing: static branches vanish from the history (the paper's
     * default configuration). */
    NoShift,

    /** Their actual outcome, as the paper's "Shift" columns: keeps
     * the correlation information the ghist register carries. */
    ShiftOutcome,

    /** Their static prediction (an extension: available at fetch time
     * without waiting for resolution). */
    ShiftPrediction,
};

/** Policy name for table output. */
std::string shiftPolicyName(ShiftPolicy policy);

/**
 * Wraps a dynamic predictor with a static hint database. Implements
 * BranchPredictor so the engine drives it like any other predictor.
 */
class CombinedPredictor : public BranchPredictor
{
  public:
    /**
     * @param dynamic the dynamic component (ownership taken)
     * @param hints   static hints; copied
     * @param policy  history treatment of statically predicted
     *                branches
     */
    CombinedPredictor(std::unique_ptr<BranchPredictor> dynamic,
                      HintDb hints,
                      ShiftPolicy policy = ShiftPolicy::NoShift);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override;
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    routeAliasSink(ContextAliasSink *sink) override
    {
        dynamic->attachAliasSink(sink);
    }

    /** True when the most recent prediction came from a hint. */
    bool lastWasStatic() const { return staticActive; }

    /** The wrapped dynamic predictor. */
    BranchPredictor &dynamicComponent() { return *dynamic; }

    /** The hint database in use. */
    const HintDb &hintDb() const { return hints; }

    /** The configured shift policy. */
    ShiftPolicy policy() const { return shiftPolicy; }

  private:
    std::unique_ptr<BranchPredictor> dynamic;
    HintDb hints;
    ShiftPolicy shiftPolicy;

    bool staticActive = false;
    bool staticPrediction = false;
};

} // namespace bpsim

#endif // BPSIM_CORE_COMBINED_PREDICTOR_HH
