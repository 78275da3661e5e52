#include "trace/replay_buffer.hh"

#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "support/logging.hh"

namespace bpsim
{

ReplayBuffer
ReplayBuffer::materialize(BranchStream &source, Count limit)
{
    ReplayBuffer buffer;
    buffer.pcs.reserve(limit);
    buffer.gapTaken.reserve(limit);

    source.reset();
    BranchRecord record;
    for (Count i = 0; i < limit && source.next(record); ++i) {
        bpsim_assert((record.instGap & takenBit) == 0,
                     "instruction gap exceeds 31 bits");
        buffer.pcs.push_back(record.pc);
        buffer.gapTaken.push_back(record.instGap |
                                  (record.taken ? takenBit : 0));
        buffer.instructions += record.instGap;
    }
    return buffer;
}

ReplayBuffer
ReplayBuffer::fromColumns(const Addr *pc_column,
                          const std::uint32_t *packed_column,
                          Count records, Count instruction_count,
                          std::shared_ptr<const void> backing)
{
    bpsim_assert(records == 0 ||
                     (pc_column != nullptr && packed_column != nullptr),
                 "null replay columns");
    ReplayBuffer buffer;
    // A zero-record view still needs a non-null marker so mapped()
    // and the accessors pick the view mode consistently; point at a
    // static dummy when the caller passed nothing.
    static const Addr emptyPc = 0;
    static const std::uint32_t emptyPacked = 0;
    buffer.viewPcs = pc_column != nullptr ? pc_column : &emptyPc;
    buffer.viewPacked =
        packed_column != nullptr ? packed_column : &emptyPacked;
    buffer.viewSize = records;
    buffer.instructions = instruction_count;
    buffer.backing = std::move(backing);
    return buffer;
}

/** The window totals an index has counted, one slot per window. */
struct SiteIndex::WindowOutcomes
{
    struct Slot
    {
        std::once_flag once;
        std::vector<SiteOutcome> totals;
    };

    std::mutex lock;
    std::map<std::pair<Count, Count>, std::unique_ptr<Slot>> slots;
};

SiteIndex::SiteIndex() : windows(std::make_shared<WindowOutcomes>()) {}

SiteIndex
SiteIndex::build(const ReplayBuffer &buffer)
{
    SiteIndex index;
    const Count n = buffer.size();
    index.siteOf.resize(n);

    const Addr *pcs = buffer.pcData();
    std::unordered_map<Addr, std::uint32_t> ids;
    for (Count i = 0; i < n; ++i) {
        const auto [it, inserted] = ids.try_emplace(
            pcs[i], static_cast<std::uint32_t>(index.pcs.size()));
        if (inserted)
            index.pcs.push_back(pcs[i]);
        index.siteOf[i] = it->second;
    }
    return index;
}

const std::vector<SiteOutcome> &
SiteIndex::outcomesOver(const ReplayBuffer &buffer, Count from,
                        Count to) const
{
    bpsim_assert(buffer.size() == size() && from <= to && to <= size(),
                 "outcome window outside the indexed buffer");
    WindowOutcomes::Slot *slot = nullptr;
    {
        std::lock_guard<std::mutex> guard(windows->lock);
        std::unique_ptr<WindowOutcomes::Slot> &held =
            windows->slots[{from, to}];
        if (held == nullptr)
            held = std::make_unique<WindowOutcomes::Slot>();
        slot = held.get();
    }
    std::call_once(slot->once, [&] {
        std::vector<SiteOutcome> totals(siteCount());
        const std::uint32_t *packed = buffer.packedData();
        for (Count i = from; i < to; ++i) {
            SiteOutcome &site = totals[siteOf[i]];
            ++site.executed;
            site.taken += (packed[i] & ReplayBuffer::packedTakenBit) != 0;
        }
        slot->totals = std::move(totals);
    });
    return slot->totals;
}

} // namespace bpsim
