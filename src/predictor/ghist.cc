#include "predictor/ghist.hh"

#include "predictor/registry.hh"

#include "predictor/table_size.hh"

namespace bpsim
{

Ghist::Ghist(std::size_t size_bytes, BitCount counter_bits)
    : table(entriesForBudget(size_bytes, counter_bits), counter_bits,
            SatCounter::weak(counter_bits, false).value()),
      history(table.indexBits())
{
}

bool
Ghist::predict(Addr pc)
{
    lastIndex = table.indexFor(history.value());
    return table.lookup(lastIndex, pc).taken();
}

void
Ghist::update(Addr, bool taken)
{
    auto counter = table.entry(lastIndex);
    table.classify(counter.taken() == taken);
    counter.train(taken);
}

void
Ghist::updateHistory(bool taken)
{
    history.push(taken);
}

void
Ghist::reset()
{
    table.reset();
    history.clear();
}

std::size_t
Ghist::sizeBytes() const
{
    return table.sizeBytes();
}

CollisionStats
Ghist::collisionStats() const
{
    return table.stats();
}

void
Ghist::clearCollisionStats()
{
    table.clearStats();
}

Count
Ghist::lastPredictCollisions() const
{
    return table.pending();
}

BPSIM_REGISTER_PREDICTOR(
    ghist,
    PredictorInfo{
        .name = "ghist",
        .description = "global-history indexed counter table (GAs)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Ghist>(bytes);
            },
    })

} // namespace bpsim
