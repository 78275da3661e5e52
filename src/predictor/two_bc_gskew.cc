#include "predictor/two_bc_gskew.hh"

#include "predictor/registry.hh"

#include <algorithm>

#include "predictor/table_size.hh"

namespace bpsim
{

namespace
{

constexpr BitCount counterBits = 2;

BitCount
autoHistory(BitCount requested, BitCount fallback)
{
    return requested == 0 ? fallback : requested;
}

} // namespace

TwoBcGskew::TwoBcGskew(std::size_t size_bytes, BitCount hist_g0,
                       BitCount hist_g1, BitCount hist_meta)
    : bim(entriesForBudget(size_bytes / 4, counterBits), counterBits,
          SatCounter::weak(counterBits, false).value()),
      g0(bim.entries(), counterBits,
         SatCounter::weak(counterBits, false).value()),
      g1(bim.entries(), counterBits,
         SatCounter::weak(counterBits, false).value()),
      meta(bim.entries(), counterBits,
           SatCounter::weak(counterBits, true).value()),
      history(64),
      histG0(autoHistory(hist_g0, std::max(1u, bim.indexBits() / 2))),
      histG1(autoHistory(hist_g1, bim.indexBits())),
      histMeta(autoHistory(hist_meta, std::max(1u, bim.indexBits() / 2)))
{
    bpsim_assert(size_bytes >= 4, "2bcgskew budget too small");
    bpsim_assert(histG0 <= 64 && histG1 <= 64 && histMeta <= 64,
                 "history too long");
}

bool
TwoBcGskew::predict(Addr pc)
{
    return predictStep(pc);
}

void
TwoBcGskew::update(Addr pc, bool taken)
{
    updateStep(pc, taken);
}

void
TwoBcGskew::updateHistory(bool taken)
{
    historyStep(taken);
}

void
TwoBcGskew::reset()
{
    bim.reset();
    g0.reset();
    g1.reset();
    meta.reset();
    history.clear();
}

std::size_t
TwoBcGskew::sizeBytes() const
{
    return bim.sizeBytes() + g0.sizeBytes() + g1.sizeBytes() +
           meta.sizeBytes();
}

CollisionStats
TwoBcGskew::collisionStats() const
{
    CollisionStats stats;
    stats += bim.stats();
    stats += g0.stats();
    stats += g1.stats();
    stats += meta.stats();
    return stats;
}

void
TwoBcGskew::clearCollisionStats()
{
    bim.clearStats();
    g0.clearStats();
    g1.clearStats();
    meta.clearStats();
}

Count
TwoBcGskew::lastPredictCollisions() const
{
    return pendingStep();
}

BPSIM_REGISTER_PREDICTOR(
    twobcgskew,
    PredictorInfo{
        .name = "2bcgskew",
        .description = "skewed majority-vote hybrid (Seznec & Michaud)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<TwoBcGskew>(bytes);
            },
        .paperKind = true,
        .kernelCapable = true,
    })

} // namespace bpsim
