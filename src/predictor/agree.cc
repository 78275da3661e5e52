#include "predictor/agree.hh"

#include "predictor/registry.hh"

#include "support/bits.hh"
#include "predictor/table_size.hh"

namespace bpsim
{

Agree::Agree(std::size_t size_bytes, BitCount counter_bits)
    : table(entriesForBudget(size_bytes, counter_bits), counter_bits,
            // Power-on state: strongly "agree".
            static_cast<std::uint8_t>((1u << counter_bits) - 1)),
      history(table.indexBits())
{
}

std::size_t
Agree::index(Addr pc) const
{
    return static_cast<std::size_t>(hashPcHistoryXor(
        pc / instructionBytes, history.value(), table.indexBits()));
}

bool
Agree::predict(Addr pc)
{
    lastIndex = index(pc);
    const bool agree = table.lookup(lastIndex, pc).taken();

    const auto it = biasBits.find(pc);
    lastHadBias = it != biasBits.end();
    // Before the first execution assigns a bias bit, fall back to
    // backward-taken-style static default: predict not-taken.
    lastBias = lastHadBias ? it->second : false;
    return agree ? lastBias : !lastBias;
}

void
Agree::update(Addr pc, bool taken)
{
    if (!lastHadBias) {
        // First execution: latch the bias bit to the first outcome.
        biasBits.emplace(pc, taken);
        lastBias = taken;
    }
    const bool prediction_correct =
        (table.at(lastIndex).taken() ? lastBias : !lastBias) == taken;
    table.classify(prediction_correct);
    // Train toward "did the branch agree with its bias bit".
    table.at(lastIndex).train(taken == lastBias);
}

void
Agree::updateHistory(bool taken)
{
    history.push(taken);
}

void
Agree::reset()
{
    table.reset();
    history.clear();
    biasBits.clear();
}

std::size_t
Agree::sizeBytes() const
{
    return table.sizeBytes();
}

CollisionStats
Agree::collisionStats() const
{
    return table.stats();
}

void
Agree::clearCollisionStats()
{
    table.clearStats();
}

Count
Agree::lastPredictCollisions() const
{
    return table.pending();
}

BPSIM_REGISTER_PREDICTOR(
    agree,
    PredictorInfo{
        .name = "agree",
        .description = "agree predictor over a gshare table (extension)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Agree>(bytes);
            },
    })

} // namespace bpsim
