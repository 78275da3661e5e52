/**
 * @file
 * Per-context-pair aliasing attribution for shared-predictor
 * scenarios.
 *
 * Multi-context scenarios place each member workload in its own PC
 * space (context c's branches live at `c << contextPcShift`), so a
 * branch address identifies its context for free. A counter table's
 * per-entry tag holds the PC of the entry's previous occupant, which
 * means every detected collision already names both parties: the
 * *victim* is the context doing the lookup, the *aggressor* the
 * context whose branch last wrote the entry. The sink below folds
 * those pairs into an NxN interference matrix with the same
 * constructive/destructive split CollisionStats keeps in aggregate.
 *
 * Flush protocol: tables note() collisions during predict and the
 * first classify() of the update round flushes every pending pair
 * with that round's outcome. All tables of one predictor classify a
 * round with the same correctness bit, so the pooled flush buckets
 * each pair exactly as the owning table's own CollisionStats does;
 * later classify() calls in the same round see an empty pending list
 * and are no-ops. clear() mirrors CounterTable::clearStats() so the
 * warmup boundary resets attribution alongside the aggregate split.
 */

#ifndef BPSIM_PREDICTOR_CONTEXT_ALIAS_HH
#define BPSIM_PREDICTOR_CONTEXT_ALIAS_HH

#include <cstdint>
#include <vector>

#include "support/types.hh"

namespace bpsim
{

/**
 * Bit position of the context id inside a scenario PC. Synthetic
 * program PCs start near 2^32 and advance a few bytes per site, so
 * bits [40, 64) are always zero for a plain program — context 0 keeps
 * its member's PCs byte-identical, which is what makes a one-context
 * scenario bit-identical to its member's plain cell.
 */
inline constexpr unsigned contextPcShift = 40;

/** Base address of context @p context's PC space. */
constexpr Addr
contextPcBase(std::size_t context)
{
    return static_cast<Addr>(context) << contextPcShift;
}

/** The context owning @p pc (0 for plain, un-rebased programs). */
constexpr std::size_t
contextOfPc(Addr pc)
{
    return static_cast<std::size_t>(pc >> contextPcShift);
}

/** One (victim, aggressor) cell of the interference matrix. */
struct ContextAliasCell
{
    /** Collisions where the victim looked up an entry the aggressor
     * had tagged. Superset of the classified counts below; the
     * difference is neutral (prediction unaffected). */
    Count collisions = 0;

    /** Collisions followed by a correct prediction. */
    Count constructive = 0;

    /** Collisions followed by a misprediction. */
    Count destructive = 0;
};

/**
 * Pooled per-context-pair collision accounting for one predictor.
 * Attached to every CounterTable of the predictor under evaluation;
 * not thread-safe (each simulation owns its predictor and sink).
 */
class ContextAliasSink
{
  public:
    explicit ContextAliasSink(std::size_t contexts)
        : n(contexts), matrix(contexts * contexts)
    {
        pending.reserve(8);
    }

    std::size_t contexts() const { return n; }

    /** Record a collision: @p pc collided with an entry last tagged
     * by @p tag. Out-of-range contexts are dropped defensively. */
    void
    note(Addr pc, Addr tag)
    {
        const std::size_t victim = contextOfPc(pc);
        const std::size_t aggressor = contextOfPc(tag);
        if (victim >= n || aggressor >= n)
            return;
        const std::size_t cell = victim * n + aggressor;
        ++matrix[cell].collisions;
        pending.push_back(static_cast<std::uint32_t>(cell));
    }

    /** Bucket every pending collision by this round's outcome. */
    void
    classify(bool correct)
    {
        for (const std::uint32_t cell : pending) {
            if (correct)
                ++matrix[cell].constructive;
            else
                ++matrix[cell].destructive;
        }
        pending.clear();
    }

    /** Zero all counts (warmup boundary, predictor reset). */
    void
    clear()
    {
        for (ContextAliasCell &cell : matrix)
            cell = ContextAliasCell{};
        pending.clear();
    }

    /** Cell for (@p victim, @p aggressor); no bounds check. */
    const ContextAliasCell &
    cell(std::size_t victim, std::size_t aggressor) const
    {
        return matrix[victim * n + aggressor];
    }

    /** Row-major (victim-major) NxN matrix. */
    const std::vector<ContextAliasCell> &cells() const
    {
        return matrix;
    }

  private:
    std::size_t n;
    std::vector<ContextAliasCell> matrix;

    /** Collisions noted since the last classify (cell indices). */
    std::vector<std::uint32_t> pending;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_CONTEXT_ALIAS_HH
