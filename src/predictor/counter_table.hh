/**
 * @file
 * A table of saturating counters with collision-tag instrumentation.
 */

#ifndef BPSIM_PREDICTOR_COUNTER_TABLE_HH
#define BPSIM_PREDICTOR_COUNTER_TABLE_HH

#include <cstdint>
#include <vector>

#include "support/bits.hh"
#include "support/logging.hh"
#include "support/sat_counter.hh"
#include "support/types.hh"
#include "predictor/context_alias.hh"
#include "predictor/predictor.hh"

namespace bpsim
{

/**
 * Power-of-two sized table of n-bit saturating counters.
 *
 * Storage is structure-of-arrays: one contiguous byte array of raw
 * counter values and one parallel array of measurement tags, so the
 * batch replay kernels can gather and update counters lane-wise. The
 * per-entry SatCounter interface survives as a lightweight proxy
 * (Ref) returned by the accessors, which keeps the predictors' step
 * code unchanged by the layout.
 *
 * Each entry carries a measurement-only tag holding the PC of the
 * last branch that looked the entry up. lookup() reports whether the
 * access collided (tag mismatch); the owning predictor later calls
 * classify() once it knows whether its overall prediction was
 * correct, which buckets the pending collisions of the current
 * prediction round into constructive/destructive.
 *
 * Indexing is by power-of-two mask: accessors take an arbitrary hash
 * and reduce it with `hash & (entries - 1)`, so the per-branch path
 * carries neither a modulo nor a bounds assertion.
 */
class CounterTable
{
  public:
    /** Tag value meaning "no branch has used this entry yet". */
    static constexpr Addr invalidTag = ~Addr{0};

    /**
     * Proxy reference to one counter slot in the structure-of-arrays
     * store; mirrors the SatCounter mutation interface.
     */
    class Ref
    {
      public:
        Ref(std::uint8_t &slot, std::uint8_t msb, std::uint8_t max_value)
            : slot(slot), msb(msb), maxVal(max_value)
        {
        }

        /** Prediction carried by the counter (MSB set => taken). */
        bool taken() const { return satCounterTaken(slot, msb); }

        /** Current raw value. */
        std::uint8_t value() const { return slot; }

        /** Branchless train toward the actual outcome. */
        void
        train(bool taken_outcome)
        {
            slot = satCounterTrain(slot, taken_outcome, maxVal);
        }

        /** Reset to an explicit value. */
        void
        set(std::uint8_t value)
        {
            bpsim_assert(value <= maxVal, "value too large");
            slot = value;
        }

      private:
        std::uint8_t &slot;
        std::uint8_t msb;
        std::uint8_t maxVal;
    };

    /** Read-only counterpart of Ref. */
    class ConstRef
    {
      public:
        ConstRef(std::uint8_t slot, std::uint8_t msb) : slot(slot), msb(msb)
        {
        }

        bool taken() const { return satCounterTaken(slot, msb); }
        std::uint8_t value() const { return slot; }

      private:
        std::uint8_t slot;
        std::uint8_t msb;
    };

    /**
     * @param entries      table size; must be a power of two
     * @param counter_bits width of each counter (1..8)
     * @param initial      initial raw counter value
     */
    CounterTable(std::size_t entries, BitCount counter_bits,
                 std::uint8_t initial);

    /** Number of entries. */
    std::size_t entries() const { return counters.size(); }

    /** log2(entries): the index width. */
    BitCount indexBits() const { return idxBits; }

    /** The power-of-two index mask (entries - 1). */
    std::size_t indexMask() const { return idxMask; }

    /** Reduce an arbitrary hash to a valid index. */
    std::size_t
    indexFor(std::uint64_t hash) const
    {
        return static_cast<std::size_t>(hash) & idxMask;
    }

    /** Storage budget in bytes, excluding measurement tags. */
    std::size_t
    sizeBytes() const
    {
        return counters.size() * counterBits / 8;
    }

    /**
     * Access the counter at @p index (reduced by the index mask) for
     * branch @p pc, recording collision statistics and updating the
     * tag.
     */
    Ref
    lookup(std::size_t index, Addr pc)
    {
        index &= idxMask;
        ++collisionStats.lookups;
        const Addr tag = tags[index];
        const bool collided = tag != invalidTag && tag != pc;
        collisionStats.collisions += collided;
        pendingCollisions += collided;
        if (collided && aliasSink != nullptr)
            aliasSink->note(pc, tag);
        tags[index] = pc;
        return Ref(counters[index], msbThreshold, maxVal);
    }

    /** Direct access without instrumentation (for update paths). */
    Ref
    at(std::size_t index)
    {
        bpsim_assert(index < counters.size(), "index out of range");
        return Ref(counters[index], msbThreshold, maxVal);
    }

    ConstRef
    at(std::size_t index) const
    {
        bpsim_assert(index < counters.size(), "index out of range");
        return ConstRef(counters[index], msbThreshold);
    }

    /** Uninstrumented masked access for the hot update path. */
    Ref
    entry(std::size_t index)
    {
        return Ref(counters[index & idxMask], msbThreshold, maxVal);
    }

    /**
     * Attribute the collisions recorded since the last classify()
     * call as constructive (@p correct) or destructive.
     */
    void
    classify(bool correct)
    {
        collisionStats.constructive += correct ? pendingCollisions : 0;
        collisionStats.destructive += correct ? 0 : pendingCollisions;
        pendingCollisions = 0;
        if (aliasSink != nullptr)
            aliasSink->classify(correct);
    }

    /** Reset every counter (and tag) to the power-on state. */
    void reset();

    /** Collision statistics gathered so far. */
    const CollisionStats &stats() const { return collisionStats; }

    /** Collisions recorded since the last classify() call. */
    Count pending() const { return pendingCollisions; }

    /** Zero the collision statistics. */
    void
    clearStats()
    {
        collisionStats = CollisionStats{};
        if (aliasSink != nullptr)
            aliasSink->clear();
    }

    /**
     * Route per-context collision attribution into @p sink (null
     * detaches). Shared by all tables of one predictor; the pooled
     * flush protocol is documented on ContextAliasSink.
     */
    void setAliasSink(ContextAliasSink *sink) { aliasSink = sink; }

    /**
     * @name Raw structure-of-arrays access for the batch kernels
     * The kernels gather counters/tags directly and tally collisions
     * per record, flushing each table's share into statsRef() at
     * segment boundaries; their sink-reporting instantiation reports
     * colliding lookups to attachedSink() already classified
     * (ContextAliasSink::noteClassified), where lookup() notes them
     * for classify().
     */
    ///@{
    std::uint8_t *counterData() { return counters.data(); }
    Addr *tagData() { return tags.data(); }
    std::uint8_t counterMax() const { return maxVal; }
    std::uint8_t counterMsb() const { return msbThreshold; }
    CollisionStats &statsRef() { return collisionStats; }
    ContextAliasSink *attachedSink() const { return aliasSink; }
    ///@}

  private:
    std::vector<std::uint8_t> counters;
    std::vector<Addr> tags;
    CollisionStats collisionStats;
    ContextAliasSink *aliasSink = nullptr;
    Count pendingCollisions = 0;
    std::size_t idxMask = 0;
    BitCount counterBits;
    BitCount idxBits;
    std::uint8_t initialValue;
    std::uint8_t maxVal;
    std::uint8_t msbThreshold;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_COUNTER_TABLE_HH
