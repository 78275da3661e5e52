#include "predictor/gshare.hh"

#include "predictor/registry.hh"

#include "predictor/table_size.hh"

namespace bpsim
{

Gshare::Gshare(std::size_t size_bytes, BitCount history_bits,
               BitCount counter_bits)
    : table(entriesForBudget(size_bytes, counter_bits), counter_bits,
            SatCounter::weak(counter_bits, false).value()),
      history(history_bits == 0 ? table.indexBits() : history_bits)
{
    bpsim_assert(history.width() <= table.indexBits(),
                 "gshare history longer than index");
}

bool
Gshare::predict(Addr pc)
{
    lastIndex = index(pc);
    return table.lookup(lastIndex, pc).taken();
}

void
Gshare::update(Addr, bool taken)
{
    auto counter = table.entry(lastIndex);
    table.classify(counter.taken() == taken);
    counter.train(taken);
}

void
Gshare::updateHistory(bool taken)
{
    history.push(taken);
}

void
Gshare::reset()
{
    table.reset();
    history.clear();
}

std::size_t
Gshare::sizeBytes() const
{
    return table.sizeBytes();
}

CollisionStats
Gshare::collisionStats() const
{
    return table.stats();
}

void
Gshare::clearCollisionStats()
{
    table.clearStats();
}

Count
Gshare::lastPredictCollisions() const
{
    return table.pending();
}

BPSIM_REGISTER_PREDICTOR(
    gshare,
    PredictorInfo{
        .name = "gshare",
        .description = "PC xor global-history indexed counters (McFarling)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Gshare>(bytes);
            },
    })

} // namespace bpsim
