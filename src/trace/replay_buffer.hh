/**
 * @file
 * Materialized branch trace optimised for repeated replay.
 *
 * A ReplayBuffer captures a stream's records once into flat,
 * cache-friendly storage (structure-of-arrays: the PC column plus a
 * packed gap/outcome column, 12 bytes per branch) and hands out any
 * number of independent read cursors over it. Experiment matrices
 * that simulate N predictor configurations over the same program
 * replay the buffer N times instead of re-running CFG walking and
 * behaviour evaluation N times, and concurrent cursors make the
 * buffer shareable across worker threads without locking.
 */

#ifndef BPSIM_TRACE_REPLAY_BUFFER_HH
#define BPSIM_TRACE_REPLAY_BUFFER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/branch_stream.hh"

namespace bpsim
{

/** An immutable, replayable capture of a branch stream's prefix. */
class ReplayBuffer
{
  public:
    ReplayBuffer() = default;

    /**
     * Capture at most @p limit records of @p source, resetting it
     * first so the buffer replays exactly what a fresh run of the
     * source would produce. Instruction gaps must fit in 31 bits
     * (the taken flag shares their word).
     */
    static ReplayBuffer materialize(BranchStream &source, Count limit);

    /**
     * Wrap externally owned columns (an artifact-cache mmap) without
     * copying. The buffer only views @p pc_column / @p packed_column;
     * @p backing keeps the memory alive for as long as any copy of
     * the buffer exists (copies share it), so the mapping's lifetime
     * follows ordinary value semantics. The columns must use the same
     * encoding materialize() produces.
     */
    static ReplayBuffer
    fromColumns(const Addr *pc_column,
                const std::uint32_t *packed_column, Count records,
                Count instruction_count,
                std::shared_ptr<const void> backing);

    /** Records stored. */
    Count size() const { return viewPcs ? viewSize : pcs.size(); }

    bool empty() const { return size() == 0; }

    /** True when the buffer views external (mapped) storage. */
    bool mapped() const { return viewPcs != nullptr; }

    /** Total dynamic instruction count (sum of gaps). */
    Count instructionCount() const { return instructions; }

    /**
     * Bytes of record storage the replay reads (the replay memory
     * cost). For a mapped buffer these are shared page-cache bytes,
     * not private allocations.
     */
    std::size_t memoryBytes() const { return size() * bytesPerBranch; }

    /** Storage cost per branch in bytes (PC column + gap/taken word). */
    static constexpr std::size_t bytesPerBranch =
        sizeof(Addr) + sizeof(std::uint32_t);

    /** Fill @p record with record @p index (no bounds check). */
    void
    get(Count index, BranchRecord &record) const
    {
        record.pc = pcData()[index];
        const std::uint32_t packed = packedData()[index];
        record.taken = (packed & takenBit) != 0;
        record.instGap = packed & ~takenBit;
    }

    /**
     * A forward cursor over the buffer; implements BranchStream so
     * the engine replays it like any other trace. Cursors are cheap
     * value types: every simulation (and every worker thread) takes
     * its own, so the shared buffer is read concurrently with no
     * synchronisation.
     */
    class Cursor : public BranchStream
    {
      public:
        explicit Cursor(const ReplayBuffer &buffer) : buf(&buffer) {}

        bool
        next(BranchRecord &record) override
        {
            if (pos >= buf->size())
                return false;
            buf->get(pos, record);
            ++pos;
            return true;
        }

        void reset() override { pos = 0; }

      private:
        const ReplayBuffer *buf;
        Count pos = 0;
    };

    /** A fresh cursor positioned at the first record. */
    Cursor cursor() const { return Cursor(*this); }

    /** Bit of a packed gap/taken word holding the outcome flag. */
    static constexpr std::uint32_t packedTakenBit = 0x8000'0000u;

    /**
     * Raw column access for block-iterating consumers (the engine's
     * devirtualized replay kernels). pcData()[i] pairs with
     * packedData()[i]: taken = packed & packedTakenBit, instruction
     * gap = packed & ~packedTakenBit — the same decode get() applies.
     */
    const Addr *
    pcData() const
    {
        return viewPcs ? viewPcs : pcs.data();
    }

    const std::uint32_t *
    packedData() const
    {
        return viewPacked ? viewPacked : gapTaken.data();
    }

  private:
    static constexpr std::uint32_t takenBit = packedTakenBit;

    // Owned storage (materialize()): the vectors hold the columns and
    // the view pointers stay null. Mapped storage (fromColumns()):
    // the view pointers reference external memory kept alive by
    // `backing`, and the vectors stay empty. Accessors branch on the
    // mode once per call; the hot replay kernels fetch pcData() /
    // packedData() a single time per pass, so the branch never sits
    // in an inner loop.
    std::vector<Addr> pcs;
    std::vector<std::uint32_t> gapTaken;
    Count instructions = 0;

    const Addr *viewPcs = nullptr;
    const std::uint32_t *viewPacked = nullptr;
    Count viewSize = 0;
    std::shared_ptr<const void> backing;
};

/** One site's outcome counts over a window of records. */
struct SiteOutcome
{
    Count executed = 0;
    Count taken = 0;
};

/**
 * Dense enumeration of a buffer's distinct branch sites (static
 * branches). Site ids are assigned in first-occurrence order, so
 * siteData()[i] maps record i to a small integer < siteCount() and
 * sitePc() inverts the mapping.
 *
 * Built once per buffer and shared read-only, a site index lets
 * consumers that would otherwise hash the PC column per record — the
 * fused sweep executor's static-hint lookups and per-branch profile
 * accumulation — replace the hash with an L1-resident array load.
 * The index is pure acceleration: it carries no information beyond
 * the buffer's columns, so results never depend on it.
 */
class SiteIndex
{
  public:
    SiteIndex();

    /** Enumerate the sites of @p buffer (one pass over its records). */
    static SiteIndex build(const ReplayBuffer &buffer);

    /** Distinct branch sites seen. */
    std::uint32_t
    siteCount() const
    {
        return static_cast<std::uint32_t>(pcs.size());
    }

    /** Per-record site ids, parallel to the buffer's columns. */
    const std::uint32_t *siteData() const { return siteOf.data(); }

    /** The PC of @p site (no bounds check). */
    Addr sitePc(std::uint32_t site) const { return pcs[site]; }

    /** Records the index covers (the buffer's size at build time). */
    Count size() const { return siteOf.size(); }

    /** Bytes held by the index, window totals aside. */
    std::size_t
    memoryBytes() const
    {
        return siteOf.size() * sizeof(std::uint32_t) +
               pcs.size() * sizeof(Addr);
    }

    /**
     * Each site's executed and taken counts over records [@p from,
     * @p to) of @p buffer, the buffer the index was built from. A
     * window is counted once and kept with the index (copies share
     * them), so every pass over the index — every cell of one runner
     * buffer — shares one count per window. Safe to call from
     * concurrent passes.
     */
    const std::vector<SiteOutcome> &
    outcomesOver(const ReplayBuffer &buffer, Count from, Count to) const;

  private:
    struct WindowOutcomes;

    std::vector<std::uint32_t> siteOf;
    std::vector<Addr> pcs;
    std::shared_ptr<WindowOutcomes> windows;
};

} // namespace bpsim

#endif // BPSIM_TRACE_REPLAY_BUFFER_HH
