#include "predictor/yags.hh"

#include "predictor/registry.hh"

#include "support/bits.hh"
#include "support/logging.hh"
#include "predictor/table_size.hh"

namespace bpsim
{

namespace
{

/**
 * Exception-cache entries for a byte budget: each entry costs
 * (2 + tag_bits) bits; round down to a power of two.
 */
std::size_t
cacheEntriesForBudget(std::size_t size_bytes, BitCount tag_bits)
{
    bpsim_assert(size_bytes >= 16, "YAGS cache budget too small");
    const std::size_t budget_bits = size_bytes * 8;
    const std::size_t per_entry = 2 + tag_bits;
    std::size_t entries = 1;
    while (entries * 2 * per_entry <= budget_bits)
        entries *= 2;
    return entries;
}

} // namespace

Yags::Yags(std::size_t size_bytes, BitCount tag_bits)
    : choice(entriesForBudget(size_bytes / 2, 2), 2,
             SatCounter::weak(2, false).value()),
      takenCache(cacheEntriesForBudget(size_bytes / 4, tag_bits)),
      notTakenCache(takenCache.size()),
      history(floorLog2(takenCache.size())),
      tagBits(tag_bits),
      cacheIndexBits(floorLog2(takenCache.size()))
{
    bpsim_assert(tag_bits >= 1 && tag_bits <= 16, "bad tag width");
}

std::size_t
Yags::choiceIndex(Addr pc) const
{
    return static_cast<std::size_t>((pc / instructionBytes) &
                                    mask(choice.indexBits()));
}

std::size_t
Yags::cacheIndex(Addr pc) const
{
    // Gshare-style index into the exception caches.
    const std::uint64_t addr =
        foldBits(pc / instructionBytes, cacheIndexBits);
    return static_cast<std::size_t>((addr ^ history.value()) &
                                    mask(cacheIndexBits));
}

std::uint16_t
Yags::tagOf(Addr pc) const
{
    return static_cast<std::uint16_t>((pc / instructionBytes) &
                                      mask(tagBits));
}

bool
Yags::predict(Addr pc)
{
    lastChoiceIdx = choiceIndex(pc);
    lastCacheIdx = cacheIndex(pc);
    lastChoiceTaken = choice.lookup(lastChoiceIdx, pc).taken();

    // The cache consulted is the one holding exceptions to the
    // choice's direction.
    const auto &cache = lastChoiceTaken ? notTakenCache : takenCache;
    const CacheEntry &entry = cache[lastCacheIdx];
    lastCacheHit = entry.valid && entry.tag == tagOf(pc);

    lastPrediction =
        lastCacheHit ? entry.counter.taken() : lastChoiceTaken;
    return lastPrediction;
}

void
Yags::update(Addr pc, bool taken)
{
    const bool correct = lastPrediction == taken;
    choice.classify(correct);

    auto &cache = lastChoiceTaken ? notTakenCache : takenCache;
    CacheEntry &entry = cache[lastCacheIdx];

    if (lastCacheHit) {
        entry.counter.train(taken);
    } else if (taken != lastChoiceTaken) {
        // A new exception: allocate (replacing whatever was there).
        entry.valid = true;
        entry.tag = tagOf(pc);
        entry.counter = SatCounter::weak(2, taken);
    }

    // The choice table trains like bimodal, except it is not updated
    // when it disagrees with the outcome but the final (cache-served)
    // prediction was correct — the exception is doing its job, and
    // flipping the choice would orphan it.
    const bool choice_opposes = lastChoiceTaken != taken;
    if (!(choice_opposes && correct))
        choice.at(lastChoiceIdx).train(taken);
}

void
Yags::updateHistory(bool taken)
{
    history.push(taken);
}

void
Yags::reset()
{
    choice.reset();
    takenCache.assign(takenCache.size(), CacheEntry{});
    notTakenCache.assign(notTakenCache.size(), CacheEntry{});
    history.clear();
}

std::size_t
Yags::sizeBytes() const
{
    const std::size_t cache_bits =
        (takenCache.size() + notTakenCache.size()) * (2 + tagBits);
    return choice.sizeBytes() + cache_bits / 8;
}

CollisionStats
Yags::collisionStats() const
{
    // Only the (untagged) choice table can alias; the exception
    // caches are tagged by construction.
    return choice.stats();
}

void
Yags::clearCollisionStats()
{
    choice.clearStats();
}

Count
Yags::lastPredictCollisions() const
{
    return choice.pending();
}

BPSIM_REGISTER_PREDICTOR(
    yags,
    PredictorInfo{
        .name = "yags",
        .description = "tagged exception caches over a choice table",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Yags>(bytes);
            },
    })

} // namespace bpsim
