#include "predictor/gselect.hh"

#include "predictor/registry.hh"

#include "support/bits.hh"
#include "predictor/table_size.hh"

namespace bpsim
{

Gselect::Gselect(std::size_t size_bytes, BitCount history_bits,
                 BitCount counter_bits)
    : table(entriesForBudget(size_bytes, counter_bits), counter_bits,
            SatCounter::weak(counter_bits, false).value()),
      history(history_bits == 0
                  ? std::max(1u, table.indexBits() / 2)
                  : history_bits)
{
    bpsim_assert(history.width() < table.indexBits(),
                 "gselect history leaves no address bits");
}

std::size_t
Gselect::index(Addr pc) const
{
    return static_cast<std::size_t>(
        hashPcHistoryConcat(pc / instructionBytes, history.value(),
                            history.width(), table.indexBits()));
}

bool
Gselect::predict(Addr pc)
{
    lastIndex = index(pc);
    return table.lookup(lastIndex, pc).taken();
}

void
Gselect::update(Addr pc, bool taken)
{
    (void)pc;
    const bool correct = table.at(lastIndex).taken() == taken;
    table.classify(correct);
    table.at(lastIndex).train(taken);
}

void
Gselect::updateHistory(bool taken)
{
    history.push(taken);
}

void
Gselect::reset()
{
    table.reset();
    history.clear();
}

std::size_t
Gselect::sizeBytes() const
{
    return table.sizeBytes();
}

CollisionStats
Gselect::collisionStats() const
{
    return table.stats();
}

void
Gselect::clearCollisionStats()
{
    table.clearStats();
}

Count
Gselect::lastPredictCollisions() const
{
    return table.pending();
}

BPSIM_REGISTER_PREDICTOR(
    gselect,
    PredictorInfo{
        .name = "gselect",
        .description = "PC and history concatenated index (extension)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Gselect>(bytes);
            },
    })

} // namespace bpsim
