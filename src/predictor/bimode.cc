#include "predictor/bimode.hh"

#include "predictor/registry.hh"

#include "predictor/table_size.hh"

namespace bpsim
{

BiMode::BiMode(std::size_t size_bytes, BitCount counter_bits)
    : choice(entriesForBudget(size_bytes / 2, counter_bits),
             counter_bits, SatCounter::weak(counter_bits, true).value()),
      takenTable(entriesForBudget(size_bytes / 4, counter_bits),
                 counter_bits,
                 SatCounter::weak(counter_bits, true).value()),
      notTakenTable(entriesForBudget(size_bytes / 4, counter_bits),
                    counter_bits,
                    SatCounter::weak(counter_bits, false).value()),
      history(takenTable.indexBits())
{
    bpsim_assert(size_bytes >= 4, "bi-mode budget too small");
}

bool
BiMode::predict(Addr pc)
{
    return predictStep(pc);
}

void
BiMode::update(Addr pc, bool taken)
{
    updateStep(pc, taken);
}

void
BiMode::updateHistory(bool taken)
{
    historyStep(taken);
}

void
BiMode::reset()
{
    choice.reset();
    takenTable.reset();
    notTakenTable.reset();
    history.clear();
}

std::size_t
BiMode::sizeBytes() const
{
    return choice.sizeBytes() + takenTable.sizeBytes() +
           notTakenTable.sizeBytes();
}

CollisionStats
BiMode::collisionStats() const
{
    CollisionStats stats;
    stats += choice.stats();
    stats += takenTable.stats();
    stats += notTakenTable.stats();
    return stats;
}

void
BiMode::clearCollisionStats()
{
    choice.clearStats();
    takenTable.clearStats();
    notTakenTable.clearStats();
}

Count
BiMode::lastPredictCollisions() const
{
    return pendingStep();
}

BPSIM_REGISTER_PREDICTOR(
    bimode,
    PredictorInfo{
        .name = "bimode",
        .description = "direction tables plus choice predictor (Lee et al.)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<BiMode>(bytes);
            },
        .paperKind = true,
        .kernelCapable = true,
        .batchCapable = true,
    })

} // namespace bpsim
