#include "predictor/bimodal.hh"

#include "predictor/registry.hh"

#include "predictor/table_size.hh"

namespace bpsim
{

Bimodal::Bimodal(std::size_t size_bytes, BitCount counter_bits)
    : table(entriesForBudget(size_bytes, counter_bits), counter_bits,
            SatCounter::weak(counter_bits, false).value())
{
}

bool
Bimodal::predict(Addr pc)
{
    lastIndex = table.indexFor(pc / instructionBytes);
    return table.lookup(lastIndex, pc).taken();
}

void
Bimodal::update(Addr, bool taken)
{
    auto counter = table.entry(lastIndex);
    table.classify(counter.taken() == taken);
    counter.train(taken);
}

void
Bimodal::updateHistory(bool)
{
    // Bimodal keeps no global history.
}

void
Bimodal::reset()
{
    table.reset();
}

std::size_t
Bimodal::sizeBytes() const
{
    return table.sizeBytes();
}

CollisionStats
Bimodal::collisionStats() const
{
    return table.stats();
}

void
Bimodal::clearCollisionStats()
{
    table.clearStats();
}

Count
Bimodal::lastPredictCollisions() const
{
    return table.pending();
}

BPSIM_REGISTER_PREDICTOR(
    bimodal,
    PredictorInfo{
        .name = "bimodal",
        .description = "per-branch PC-indexed counters (paper baseline)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Bimodal>(bytes);
            },
    })

} // namespace bpsim
