/**
 * @file
 * Static prediction hint database.
 *
 * Models the two hint bits of the paper's §2 (after IA-64): one bit
 * says "use the static prediction for this branch", the other carries
 * the predicted direction. In hardware the bits live in the branch
 * instruction encoding; here they live in a per-program database that
 * the selection phase writes and the evaluation phase reads.
 */

#ifndef BPSIM_STATICSEL_STATIC_HINT_HH
#define BPSIM_STATICSEL_STATIC_HINT_HH

#include <string>
#include <unordered_map>

#include "support/error.hh"
#include "support/types.hh"

namespace bpsim
{

/** Map from branch PC to its static prediction, if it has one. */
class HintDb
{
  public:
    using Map = std::unordered_map<Addr, bool>;

    /** Mark @p pc statically predicted with direction @p taken. */
    void
    insert(Addr pc, bool taken)
    {
        hints[pc] = taken;
    }

    /** True when @p pc carries a static hint. */
    bool
    contains(Addr pc) const
    {
        return hints.find(pc) != hints.end();
    }

    /**
     * The static prediction of @p pc.
     *
     * @param pc    branch address
     * @param taken set to the hinted direction when present
     * @retval true a hint exists and @p taken is valid
     */
    bool
    lookup(Addr pc, bool &taken) const
    {
        const auto it = hints.find(pc);
        if (it == hints.end())
            return false;
        taken = it->second;
        return true;
    }

    /** Number of statically predicted branches. */
    std::size_t size() const { return hints.size(); }

    /** Whole-map access for iteration. */
    const Map &entries() const { return hints; }

    /** Save as text ("pc direction" lines). */
    void save(const std::string &path) const;

    /**
     * Load a database saved by save(). io_failure, naming file:line,
     * when the file cannot be read or a line is not "pc T|N" or
     * repeats an earlier line's pc.
     */
    static Result<HintDb> load(const std::string &path);

  private:
    Map hints;
};

} // namespace bpsim

#endif // BPSIM_STATICSEL_STATIC_HINT_HH
