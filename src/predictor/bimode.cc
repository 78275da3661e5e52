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
    lastChoiceIndex = choice.indexFor(pc / instructionBytes);
    lastDirectionIndex = directionIndex(pc);

    lastChoseTaken = choice.lookup(lastChoiceIndex, pc).taken();
    CounterTable &direction = lastChoseTaken ? takenTable : notTakenTable;
    lastPrediction = direction.lookup(lastDirectionIndex, pc).taken();
    return lastPrediction;
}

void
BiMode::update(Addr, bool taken)
{
    const bool correct = lastPrediction == taken;

    CounterTable &selected = lastChoseTaken ? takenTable : notTakenTable;
    CounterTable &unselected = lastChoseTaken ? notTakenTable : takenTable;
    selected.classify(correct);
    unselected.classify(correct);
    choice.classify(correct);

    // Partial update: only the selected direction table trains.
    selected.entry(lastDirectionIndex).train(taken);

    // Choice trains toward the outcome except when it opposed the
    // outcome but the selected direction table still got it right.
    const bool choice_opposes = lastChoseTaken != taken;
    if (!(choice_opposes && correct))
        choice.entry(lastChoiceIndex).train(taken);
}

void
BiMode::updateHistory(bool taken)
{
    history.push(taken);
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
    return choice.pending() + takenTable.pending() +
           notTakenTable.pending();
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
    })

} // namespace bpsim
