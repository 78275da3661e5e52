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
    const std::uint64_t pc_index = pc / instructionBytes;
    last.baseIdx = base.indexFor(pc_index);
    last.basePred = base.lookup(last.baseIdx, pc).taken();

    last.provider = -1;
    last.altPred = last.basePred;
    for (unsigned b = 0; b < numBanks; ++b) {
        Bank &bank = banks[b];
        last.idx[b] = bankIndex(b, pc_index);
        last.tag[b] = bankTag(b, pc_index);
        last.hit[b] = bank.tags[last.idx[b]] == last.tag[b];
        last.pred[b] = bank.pred.lookup(last.idx[b], pc).taken();
    }
    for (int b = numBanks - 1; b >= 0; --b) {
        if (last.hit[b]) {
            last.provider = b;
            break;
        }
    }
    if (last.provider >= 0) {
        for (int b = last.provider - 1; b >= 0; --b) {
            if (last.hit[b]) {
                last.altPred = last.pred[b];
                break;
            }
        }
        last.finalPred = last.pred[last.provider];
    } else {
        last.finalPred = last.basePred;
    }
    return last.finalPred;
}

void
Tage::update(Addr, bool taken)
{
    const bool correct = last.finalPred == taken;

    base.classify(correct);
    for (Bank &bank : banks)
        bank.pred.classify(correct);

    if (last.provider >= 0) {
        Bank &provider = banks[last.provider];
        const std::size_t idx = last.idx[last.provider];

        // The useful counter tracks "provider beat the alternate": it
        // only moves when they disagreed, toward whichever was right.
        if (last.pred[last.provider] != last.altPred) {
            std::uint8_t &useful = provider.useful[idx];
            if (last.pred[last.provider] == taken)
                useful += useful < usefulMax ? 1 : 0;
            else
                useful -= useful > 0 ? 1 : 0;
        }
        provider.pred.entry(idx).train(taken);
    } else {
        base.entry(last.baseIdx).train(taken);
    }

    // Allocate a longer-history entry on a misprediction (the only
    // time allocation happens — pinned by test_tagged.cc).
    if (!correct && last.provider < static_cast<int>(numBanks) - 1)
        allocate(taken);

    if (++updatesSinceAging >= agePeriod)
        ageUseful();
}

void
Tage::updateHistory(bool taken)
{
    // Shift the long history and advance every folded image of it.
    std::array<bool, numBanks> out_bits;
    for (unsigned b = 0; b < numBanks; ++b)
        out_bits[b] = history.bit(historyLengths[b] - 1);
    history.push(taken);
    for (unsigned b = 0; b < numBanks; ++b) {
        Bank &bank = banks[b];
        bank.idxFold.update(taken, out_bits[b]);
        bank.tagFold1.update(taken, out_bits[b]);
        bank.tagFold2.update(taken, out_bits[b]);
    }
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
    Count pending = base.pending();
    for (const Bank &bank : banks)
        pending += bank.pred.pending();
    return pending;
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
    })

} // namespace bpsim
