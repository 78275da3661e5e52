/**
 * @file
 * Per-branch outcome models for synthetic workloads.
 *
 * Each static branch in a synthetic program owns a BranchBehavior that
 * decides taken/not-taken each time the branch executes. The behaviour
 * families mirror the branch populations the paper's evaluation depends
 * on: highly biased branches (the Static_95 targets), loop controls,
 * history-correlated branches (what ghist/gshare exploit), repeating
 * local patterns, phase changers, and input-sensitive branches whose
 * bias drifts or flips between the 'train' and 'ref' inputs (the §5.1
 * cross-training hazard).
 */

#ifndef BPSIM_WORKLOAD_BEHAVIOR_HH
#define BPSIM_WORKLOAD_BEHAVIOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "support/random.hh"
#include "support/types.hh"

namespace bpsim
{

/** Which input set the program is being run with. */
enum class InputSet : unsigned
{
    Train = 0,
    Ref = 1,
};

/** Number of distinct input sets. */
constexpr unsigned numInputSets = 2;

/** Input-set name ("train" or "ref"). */
const char *inputSetName(InputSet input);

/** Execution-time information a behaviour may consult. */
struct BehaviorContext
{
    /** Program-wide execution RNG (deterministic from the run seed). */
    Rng &rng;

    /** True outcomes of the most recent branches, LSB = most recent. */
    std::uint64_t globalHistory;

    /**
     * Outcomes of the most recent *semantic* branches only — the
     * data-dependent population (correlated, pattern, low-bias).
     * Real inter-branch correlation flows through shared data, i.e.
     * through other data-dependent branches, not through the biased
     * guards that static prediction removes.
     */
    std::uint64_t semanticHistory;

    /** Input set of the current run. */
    InputSet input;
};

/** Abstract per-branch outcome model. */
class BranchBehavior
{
  public:
    virtual ~BranchBehavior() = default;

    /** Decide the outcome of one execution of this branch. */
    virtual bool outcome(const BehaviorContext &ctx) = 0;

    /** Discard run-time state so a fresh run replays identically. */
    virtual void reset() {}
};

/**
 * Bernoulli branch with a per-input taken probability. Covers highly
 * biased, medium, and low-bias populations as well as input drift and
 * majority-direction flips (train probability p, ref probability p').
 */
class BiasedBehavior : public BranchBehavior
{
  public:
    BiasedBehavior(double p_train, double p_ref)
        : pTaken{p_train, p_ref}
    {}

    bool
    outcome(const BehaviorContext &ctx) override
    {
        return ctx.rng.chance(pTaken[static_cast<unsigned>(ctx.input)]);
    }

    /** Taken probability under @p input (used by workload analysis). */
    double
    takenProbability(InputSet input) const
    {
        return pTaken[static_cast<unsigned>(input)];
    }

  private:
    double pTaken[numInputSets];
};

/**
 * Loop control branch: taken while the loop continues, not-taken once
 * per loop exit. Trip counts are drawn from a geometric distribution
 * around a per-input mean, so the bias of a loop branch is roughly
 * (trip - 1) / trip.
 */
class LoopBehavior : public BranchBehavior
{
  public:
    /**
     * @param mean_trip_train mean control evaluations per entry
     *                        under the train input
     * @param mean_trip_ref   likewise for ref
     * @param fixed_trip      when true the trip count is the same on
     *                        every entry (a counted loop: perfectly
     *                        predictable by a history predictor whose
     *                        history covers the trip); when false it
     *                        is drawn geometrically per entry (a
     *                        data-dependent loop)
     */
    LoopBehavior(double mean_trip_train, double mean_trip_ref,
                 bool fixed_trip = false)
        : meanTrip{mean_trip_train, mean_trip_ref},
          fixedTrip(fixed_trip)
    {}

    bool outcome(const BehaviorContext &ctx) override;
    void reset() override;

  private:
    double meanTrip[numInputSets];
    bool fixedTrip;
    std::uint64_t remaining = 0;
    bool active = false;
};

/**
 * Repeating fixed taken/not-taken pattern (e.g. TTNTTN...). Perfectly
 * predictable by a history-based predictor with enough history, and
 * mispredicted at the pattern rate by bimodal.
 */
class PatternBehavior : public BranchBehavior
{
  public:
    explicit PatternBehavior(std::vector<bool> pattern);

    bool outcome(const BehaviorContext &ctx) override;
    void reset() override { position = 0; }

  private:
    std::vector<bool> pattern;
    std::size_t position = 0;
};

/**
 * Branch whose outcome is the parity of selected recent global
 * outcomes, optionally inverted per input, with a small noise floor.
 * This is the population that embodies the paper's "branch
 * correlation" principle: near-50% bias, yet highly predictable by
 * ghist/gshare when aliasing permits.
 */
class CorrelatedBehavior : public BranchBehavior
{
  public:
    /**
     * @param semantic_mask which semantic-history bits feed the
     *                      parity (the dominant correlation channel)
     * @param global_mask   which raw global-history bits also feed it
     *                      (0 for most branches; a nonzero mask makes
     *                      the branch sensitive to whether statically
     *                      predicted outcomes stay in the history —
     *                      the paper's Table 4 shift phenomenon)
     * @param invert_train  invert the parity under 'train'
     * @param invert_ref    invert the parity under 'ref'
     * @param noise         probability of a random outcome instead
     */
    CorrelatedBehavior(std::uint64_t semantic_mask,
                       std::uint64_t global_mask, bool invert_train,
                       bool invert_ref, double noise)
        : semanticMask(semantic_mask), globalMask(global_mask),
          invert{invert_train, invert_ref}, noise(noise)
    {}

    bool outcome(const BehaviorContext &ctx) override;

  private:
    std::uint64_t semanticMask;
    std::uint64_t globalMask;
    bool invert[numInputSets];
    double noise;
};

/**
 * Branch alternating between two biases with a fixed period,
 * modelling program phase changes that degrade static prediction.
 */
class PhaseBehavior : public BranchBehavior
{
  public:
    PhaseBehavior(double p_phase_a, double p_phase_b,
                  std::uint64_t period)
        : pA(p_phase_a), pB(p_phase_b), period(period)
    {}

    bool outcome(const BehaviorContext &ctx) override;
    void reset() override { executions = 0; }

  private:
    double pA;
    double pB;
    std::uint64_t period;
    std::uint64_t executions = 0;
};

} // namespace bpsim

#endif // BPSIM_WORKLOAD_BEHAVIOR_HH
