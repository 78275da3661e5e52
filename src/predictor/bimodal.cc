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
    return predictStep(pc);
}

void
Bimodal::update(Addr pc, bool taken)
{
    updateStep(pc, taken);
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
    return pendingStep();
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
        .paperKind = true,
        .kernelCapable = true,
        .batchCapable = true,
    })

} // namespace bpsim
