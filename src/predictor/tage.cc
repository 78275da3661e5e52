#include "predictor/tage.hh"

#include <algorithm>

#include "predictor/registry.hh"
#include "support/sat_counter.hh"

namespace bpsim
{

namespace
{

/** Largest power of two <= @p value (min 2 so index widths stay >= 1). */
std::size_t
floorPow2Entries(std::size_t value)
{
    if (value < 2)
        return 2;
    return std::size_t{1} << floorLog2(value);
}

/** Per-bank entry cost in bits: prediction + useful + tag. */
constexpr std::size_t bankEntryBits = Tage::predBits + 2 + Tage::tagBits;

} // namespace

Tage::Tage(std::size_t size_bytes, Count age_period)
    : base(floorPow2Entries(size_bytes * 8 / 2 / predBits), predBits,
           SatCounter::weak(predBits, false).value()),
      history(historyLengths.back()), agePeriod(age_period)
{
    bpsim_assert(size_bytes >= 16, "tage budget too small");
    bpsim_assert(age_period > 0, "tage age period must be positive");

    const std::size_t bank_bits = size_bytes * 8 / 2 / numBanks;
    const std::size_t entries =
        floorPow2Entries(bank_bits / bankEntryBits);
    banks.reserve(numBanks);
    for (unsigned b = 0; b < numBanks; ++b) {
        banks.emplace_back(entries,
                           SatCounter::weak(predBits, false).value());
        Bank &bank = banks.back();
        const BitCount hist = historyLengths[b];
        bank.idxFold = FoldedHistory(
            hist, std::min<BitCount>(bank.pred.indexBits(), hist));
        bank.tagFold1 =
            FoldedHistory(hist, std::min<BitCount>(tagBits, hist));
        bank.tagFold2 =
            FoldedHistory(hist, std::min<BitCount>(tagBits - 1, hist));
    }
}

bool
Tage::predict(Addr pc)
{
    return predictStep(pc);
}

void
Tage::update(Addr pc, bool taken)
{
    updateStep(pc, taken);
}

void
Tage::updateHistory(bool taken)
{
    historyStep(taken);
}

void
Tage::reset()
{
    base.reset();
    for (Bank &bank : banks) {
        bank.pred.reset();
        std::fill(bank.tags.begin(), bank.tags.end(), 0);
        std::fill(bank.useful.begin(), bank.useful.end(), 0);
        bank.idxFold.clear();
        bank.tagFold1.clear();
        bank.tagFold2.clear();
    }
    history.clear();
    updatesSinceAging = 0;
    allocations = 0;
    agingEvents = 0;
    last = LookupState{};
}

std::size_t
Tage::sizeBytes() const
{
    std::size_t bits = base.entries() * predBits;
    for (const Bank &bank : banks)
        bits += bank.pred.entries() * bankEntryBits;
    return bits / 8;
}

CollisionStats
Tage::collisionStats() const
{
    CollisionStats stats = base.stats();
    for (const Bank &bank : banks)
        stats += bank.pred.stats();
    return stats;
}

void
Tage::clearCollisionStats()
{
    base.clearStats();
    for (Bank &bank : banks)
        bank.pred.clearStats();
}

Count
Tage::lastPredictCollisions() const
{
    return pendingStep();
}

std::size_t
Tage::bankEntries(unsigned b) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    return banks[b].pred.entries();
}

BitCount
Tage::bankHistoryBits(unsigned b) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    return historyLengths[b];
}

std::size_t
Tage::lastBankIndex(unsigned b) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    return last.idx[b];
}

std::uint8_t
Tage::lastBankTag(unsigned b) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    return last.tag[b];
}

bool
Tage::lastBankHit(unsigned b) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    return last.hit[b];
}

std::uint8_t
Tage::tagAt(unsigned b, std::size_t idx) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    bpsim_assert(idx < banks[b].tags.size(), "index out of range");
    return banks[b].tags[idx];
}

std::uint8_t
Tage::usefulAt(unsigned b, std::size_t idx) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    bpsim_assert(idx < banks[b].useful.size(), "index out of range");
    return banks[b].useful[idx];
}

const FoldedHistory &
Tage::bankIndexFold(unsigned b) const
{
    bpsim_assert(b < numBanks, "bank out of range");
    return banks[b].idxFold;
}

void
Tage::allocate(bool taken)
{
    int victim = -1;
    for (unsigned b = last.provider + 1; b < numBanks; ++b) {
        if (banks[b].useful[last.idx[b]] == 0) {
            victim = static_cast<int>(b);
            break;
        }
    }
    if (victim < 0) {
        // Every candidate is protected: decay them all so a later
        // misprediction can get through.
        for (unsigned b = last.provider + 1; b < numBanks; ++b) {
            std::uint8_t &useful = banks[b].useful[last.idx[b]];
            useful -= useful > 0 ? 1 : 0;
        }
        return;
    }
    Bank &bank = banks[victim];
    const std::size_t idx = last.idx[victim];
    bank.tags[idx] = last.tag[victim];
    bank.useful[idx] = 0;
    bank.pred.entry(idx).set(
        SatCounter::weak(predBits, taken).value());
    ++allocations;
}

void
Tage::ageUseful()
{
    for (Bank &bank : banks) {
        for (std::uint8_t &useful : bank.useful)
            useful >>= 1;
    }
    updatesSinceAging = 0;
    ++agingEvents;
}

BPSIM_REGISTER_PREDICTOR(
    tage,
    PredictorInfo{
        .name = "tage",
        .description = "tagged-geometric: bimodal base + 4 tagged "
                       "banks at history lengths 10/20/40/80",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Tage>(bytes);
            },
        .paperKind = false,
        .kernelCapable = true,
    })

} // namespace bpsim
