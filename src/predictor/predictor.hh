/**
 * @file
 * Abstract dynamic branch predictor interface and collision statistics.
 *
 * The engine drives every predictor through a strict per-branch
 * protocol: predict(pc), then update(pc, outcome), then
 * updateHistory(outcome). History update is a separate step because
 * the paper's combined static/dynamic scheme needs to control whether
 * the outcomes of statically predicted branches are shifted into the
 * global history register (its Table 4 experiment).
 */

#ifndef BPSIM_PREDICTOR_PREDICTOR_HH
#define BPSIM_PREDICTOR_PREDICTOR_HH

#include <cstddef>
#include <string>

#include "support/types.hh"

namespace bpsim
{

/**
 * Access shim the batch replay kernels use to reach a predictor's
 * tables and latched state (specialized per concrete predictor in
 * core/batch_kernels.hh; each predictor befriends it).
 */
template <typename Predictor> struct BatchTraits;

class ContextAliasSink;

/**
 * Aliasing statistics, maintained exactly as §5 of the paper defines:
 * a per-counter tag holds the PC of the last branch to use the
 * counter; a lookup under a different PC counts one collision, which
 * is classified constructive when the overall prediction for that
 * branch was nonetheless correct, destructive otherwise.
 */
struct CollisionStats
{
    /** Table lookups performed (one per table per prediction). */
    Count lookups = 0;

    /** Lookups whose tag held a different branch's PC. */
    Count collisions = 0;

    /** Collisions where the final prediction was still correct. */
    Count constructive = 0;

    /** Collisions where the final prediction was wrong. */
    Count destructive = 0;

    CollisionStats &
    operator+=(const CollisionStats &other)
    {
        lookups += other.lookups;
        collisions += other.collisions;
        constructive += other.constructive;
        destructive += other.destructive;
        return *this;
    }
};

/** Abstract dynamic conditional-branch predictor. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Predict the branch at @p pc. Also latches the lookup state
     * (indices, component predictions) consumed by the following
     * update() call; predict/update calls must strictly alternate
     * per branch, which trace-driven simulation guarantees.
     *
     * @retval true predicted taken
     */
    virtual bool predict(Addr pc) = 0;

    /**
     * Train the predictor with the actual @p taken outcome of the
     * branch last passed to predict(). Does NOT shift the global
     * history register.
     */
    virtual void update(Addr pc, bool taken) = 0;

    /**
     * Shift @p taken into the global history register (no-op for
     * predictors without one). Called by the engine for dynamically
     * predicted branches, and optionally for statically predicted
     * ones depending on the shift policy.
     */
    virtual void updateHistory(bool taken) = 0;

    /** Clear all tables and history to the power-on state. */
    virtual void reset() = 0;

    /** Hardware budget in bytes (counter bits only; tags are
     * measurement instrumentation and are not counted). */
    virtual std::size_t sizeBytes() const = 0;

    /** Short scheme name, e.g. "gshare". */
    virtual std::string name() const = 0;

    /** Aggregated collision statistics over all component tables. */
    virtual CollisionStats collisionStats() const = 0;

    /** Zero the collision statistics (tables keep their contents). */
    virtual void clearCollisionStats() = 0;

    /**
     * Collisions observed by the most recent predict() call (valid
     * between predict() and update()). Lets the engine attribute
     * aliasing to individual branches — the input to the
     * collision-aware selection scheme the paper sketches as future
     * work.
     */
    virtual Count lastPredictCollisions() const { return 0; }

    /**
     * Route per-context-pair collision attribution into @p sink
     * (null detaches) and remember it. Predictors without tagged
     * counter tables report no attribution. The replay engine runs a
     * predictor with a sink attached on the record kernels, whose
     * lookups all go through CounterTable; the batch kernels bypass
     * the tag path the sink observes.
     */
    void
    attachAliasSink(ContextAliasSink *sink)
    {
        attachedSink = sink;
        routeAliasSink(sink);
    }

    /** The sink attachAliasSink() installed, or null. */
    ContextAliasSink *aliasSink() const { return attachedSink; }

  protected:
    /** Forward @p sink to every component CounterTable. */
    virtual void routeAliasSink(ContextAliasSink *sink) { (void)sink; }

  private:
    ContextAliasSink *attachedSink = nullptr;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_PREDICTOR_HH
