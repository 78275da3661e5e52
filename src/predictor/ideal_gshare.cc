#include "predictor/ideal_gshare.hh"

#include "predictor/registry.hh"

#include "support/bits.hh"
#include "support/logging.hh"

namespace bpsim
{

IdealGshare::IdealGshare(BitCount history_bits) : history(history_bits)
{
    bpsim_assert(history_bits >= 1 && history_bits <= 48,
                 "bad ideal-gshare history length");
}

std::uint64_t
IdealGshare::key(Addr pc) const
{
    // Exact pair key: mixed PC in the high bits, history in the low
    // bits. No two (pc, history) pairs collide.
    return (mix64(pc) << history.width()) | history.value();
}

bool
IdealGshare::predict(Addr pc)
{
    lastKey = key(pc);
    const auto it = counters.find(lastKey);
    if (it == counters.end())
        return false; // cold: weakly not-taken convention
    return it->second.taken();
}

void
IdealGshare::update(Addr pc, bool taken)
{
    (void)pc;
    auto [it, inserted] =
        counters.try_emplace(lastKey, SatCounter::weak(2, false));
    it->second.train(taken);
}

void
IdealGshare::updateHistory(bool taken)
{
    history.push(taken);
}

void
IdealGshare::reset()
{
    counters.clear();
    history.clear();
}

BPSIM_REGISTER_PREDICTOR(
    ideal,
    PredictorInfo{
        .name = "ideal",
        .description = "conflict-free gshare bound; ignores byte budget",
        .make =
            [](std::size_t) {
                return std::make_unique<IdealGshare>();
            },
        .goldenFile = "ideal_gshare",
    })

} // namespace bpsim
