#include "predictor/tournament.hh"

#include "predictor/registry.hh"

#include "support/bits.hh"
#include "support/logging.hh"

namespace bpsim
{

namespace
{

/**
 * Largest power-of-two global/choice entry count M whose full
 * configuration (M/4 local histories of 10 bits, 1024 3-bit local
 * counters, M 2-bit global + M 2-bit choice counters) fits the byte
 * budget.
 */
std::size_t
globalEntriesForBudget(std::size_t size_bytes)
{
    bpsim_assert(size_bytes >= 512, "tournament budget too small");
    const std::size_t budget_bits = size_bytes * 8;
    std::size_t entries = 64;
    for (;;) {
        const std::size_t next = entries * 2;
        const std::size_t bits =
            (next / 4) * 10 + 1024 * 3 + next * 2 + next * 2;
        if (bits > budget_bits)
            return entries;
        entries = next;
    }
}

} // namespace

Tournament::Tournament(std::size_t size_bytes)
    : localHistories(globalEntriesForBudget(size_bytes) / 4, 0),
      localCounters(1024, 3, SatCounter::weak(3, false).value()),
      global(globalEntriesForBudget(size_bytes), 2,
             SatCounter::weak(2, false).value()),
      choice(global.entries(), 2, SatCounter::weak(2, true).value()),
      history(global.indexBits())
{
}

std::size_t
Tournament::localHistIndex(Addr pc) const
{
    return static_cast<std::size_t>((pc / instructionBytes) &
                                    (localHistories.size() - 1));
}

bool
Tournament::predict(Addr pc)
{
    lastLocalHistIdx = localHistIndex(pc);
    lastLocalIdx = localHistories[lastLocalHistIdx] &
                   mask(localCounters.indexBits());
    lastGlobalIdx = static_cast<std::size_t>(history.value());

    lastLocalPred = localCounters.lookup(lastLocalIdx, pc).taken();
    lastGlobalPred = global.lookup(lastGlobalIdx, pc).taken();
    lastChoseGlobal = choice.lookup(lastGlobalIdx, pc).taken();
    lastPrediction = lastChoseGlobal ? lastGlobalPred : lastLocalPred;
    return lastPrediction;
}

void
Tournament::update(Addr pc, bool taken)
{
    (void)pc;
    const bool correct = lastPrediction == taken;
    localCounters.classify(correct);
    global.classify(correct);
    choice.classify(correct);

    // Both components always train (21264 policy).
    localCounters.at(lastLocalIdx).train(taken);
    global.at(lastGlobalIdx).train(taken);

    // The choice trains only when the components disagree, toward
    // whichever was right.
    if (lastLocalPred != lastGlobalPred)
        choice.at(lastGlobalIdx).train(lastGlobalPred == taken);

    // Per-branch local history advances with the outcome.
    localHistories[lastLocalHistIdx] = static_cast<std::uint16_t>(
        ((localHistories[lastLocalHistIdx] << 1) | (taken ? 1 : 0)) &
        mask(localHistoryBits));
}

void
Tournament::updateHistory(bool taken)
{
    history.push(taken);
}

void
Tournament::reset()
{
    std::fill(localHistories.begin(), localHistories.end(), 0);
    localCounters.reset();
    global.reset();
    choice.reset();
    history.clear();
}

std::size_t
Tournament::sizeBytes() const
{
    const std::size_t bits = localHistories.size() * localHistoryBits +
                             localCounters.entries() * 3 +
                             global.entries() * 2 +
                             choice.entries() * 2;
    return bits / 8;
}

CollisionStats
Tournament::collisionStats() const
{
    CollisionStats stats;
    stats += localCounters.stats();
    stats += global.stats();
    stats += choice.stats();
    return stats;
}

void
Tournament::clearCollisionStats()
{
    localCounters.clearStats();
    global.clearStats();
    choice.clearStats();
}

Count
Tournament::lastPredictCollisions() const
{
    return localCounters.pending() + global.pending() +
           choice.pending();
}

BPSIM_REGISTER_PREDICTOR(
    tournament,
    PredictorInfo{
        .name = "tournament",
        .description = "local/global tournament with choice table",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Tournament>(bytes);
            },
    })

} // namespace bpsim
