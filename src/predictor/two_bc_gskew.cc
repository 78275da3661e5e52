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
    last.bimIdx = bimIndex(pc);
    last.g0Idx = skewedIndex(0, pc, histG0);
    last.g1Idx = skewedIndex(1, pc, histG1);
    last.metaIdx = metaIndex(pc);

    last.bimPred = bim.lookup(last.bimIdx, pc).taken();
    last.g0Pred = g0.lookup(last.g0Idx, pc).taken();
    last.g1Pred = g1.lookup(last.g1Idx, pc).taken();

    const int votes = (last.bimPred ? 1 : 0) + (last.g0Pred ? 1 : 0) +
                      (last.g1Pred ? 1 : 0);
    last.majority = votes >= 2;

    last.useMajority = meta.lookup(last.metaIdx, pc).taken();
    last.finalPred = last.useMajority ? last.majority : last.bimPred;
    return last.finalPred;
}

void
TwoBcGskew::update(Addr, bool taken)
{
    const bool correct = last.finalPred == taken;

    bim.classify(correct);
    g0.classify(correct);
    g1.classify(correct);
    meta.classify(correct);

    if (!correct) {
        // Bad overall prediction: retrain all three voting banks.
        bim.entry(last.bimIdx).train(taken);
        g0.entry(last.g0Idx).train(taken);
        g1.entry(last.g1Idx).train(taken);
    } else if (last.useMajority) {
        // Correct via the majority vote: strengthen only the banks
        // that voted with the (correct) majority.
        if (last.bimPred == taken)
            bim.entry(last.bimIdx).train(taken);
        if (last.g0Pred == taken)
            g0.entry(last.g0Idx).train(taken);
        if (last.g1Pred == taken)
            g1.entry(last.g1Idx).train(taken);
    } else {
        // Correct via the bimodal component alone.
        bim.entry(last.bimIdx).train(taken);
    }

    // Meta trains only when the components disagree, toward whichever
    // was correct.
    if (last.majority != last.bimPred)
        meta.entry(last.metaIdx).train(last.majority == taken);
}

void
TwoBcGskew::updateHistory(bool taken)
{
    history.push(taken);
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
    return bim.pending() + g0.pending() + g1.pending() + meta.pending();
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
        .makeWithHistory =
            [](std::size_t bytes, const std::vector<BitCount> &lengths) {
                return std::make_unique<TwoBcGskew>(bytes, lengths[0],
                                                    lengths[1], lengths[2]);
            },
        .historyLengthCount = 3,
    })

} // namespace bpsim
