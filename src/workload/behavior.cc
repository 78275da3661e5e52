#include "workload/behavior.hh"

#include "support/bits.hh"
#include "support/logging.hh"

namespace bpsim
{

const char *
inputSetName(InputSet input)
{
    return input == InputSet::Train ? "train" : "ref";
}

bool
LoopBehavior::outcome(const BehaviorContext &ctx)
{
    if (!active) {
        const double mean = meanTrip[static_cast<unsigned>(ctx.input)];
        remaining = fixedTrip
                        ? static_cast<std::uint64_t>(mean + 0.5)
                        : ctx.rng.geometric(mean);
        if (remaining == 0)
            remaining = 1;
        active = true;
    }
    if (remaining > 0) {
        --remaining;
        if (remaining > 0)
            return true;
    }
    // Final iteration: fall out of the loop.
    active = false;
    return false;
}

void
LoopBehavior::reset()
{
    remaining = 0;
    active = false;
}

PatternBehavior::PatternBehavior(std::vector<bool> pattern)
    : pattern(std::move(pattern))
{
    bpsim_assert(!this->pattern.empty(), "empty pattern");
}

bool
PatternBehavior::outcome(const BehaviorContext &)
{
    const bool taken = pattern[position];
    position = (position + 1) % pattern.size();
    return taken;
}

bool
CorrelatedBehavior::outcome(const BehaviorContext &ctx)
{
    if (noise > 0.0 && ctx.rng.chance(noise))
        return ctx.rng.chance(0.5);
    const std::uint64_t bits =
        (ctx.semanticHistory & semanticMask) ^
        ((ctx.globalHistory & globalMask) << 32);
    const bool parity = (__builtin_popcountll(bits) & 1) != 0;
    return parity ^ invert[static_cast<unsigned>(ctx.input)];
}

bool
PhaseBehavior::outcome(const BehaviorContext &ctx)
{
    bpsim_assert(period > 0, "zero phase period");
    const bool in_phase_a = (executions / period) % 2 == 0;
    ++executions;
    return ctx.rng.chance(in_phase_a ? pA : pB);
}

} // namespace bpsim
