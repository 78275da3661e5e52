/**
 * @file
 * On-disk profile repository modelling the Spike workflow of §5.1:
 * every instrumented run of a program appends its profile to the
 * program's database, and the optimizer later reads either the raw
 * merged profile or a *stable* subset that drops branches whose bias
 * moves too much across runs (the paper's proposed fix for the
 * cross-training hazard).
 */

#ifndef BPSIM_PROFILE_REPOSITORY_HH
#define BPSIM_PROFILE_REPOSITORY_HH

#include <string>
#include <vector>

#include "profile/profile_db.hh"

namespace bpsim
{

/** Directory-backed store of per-program, per-run profiles. */
class ProfileRepository
{
  public:
    /** Open (creating if needed) the repository at @p directory. */
    explicit ProfileRepository(std::string directory);

    /** Append one run's profile for @p program; returns run index. */
    unsigned addRun(const std::string &program,
                    const ProfileDb &profile);

    /** Number of stored runs for @p program. */
    unsigned runCount(const std::string &program) const;

    /** Load one stored run (0-based); io_failure when it is missing
     * or does not load (ProfileDb::load). */
    Result<ProfileDb> loadRun(const std::string &program,
                              unsigned run) const;

    /**
     * All runs merged by summed counts — the profile a Spike-style
     * optimizer would consume when it trusts every run equally. Fails
     * with the first run that does not load.
     */
    Result<ProfileDb> merged(const std::string &program) const;

    /**
     * Merge restricted to branches whose taken-rate varies by at most
     * @p max_bias_spread across all runs that executed them (and
     * which appear in every run that could have executed them is NOT
     * required — coverage holes are fine, instability is not). This
     * is the §5.1 anomaly filter generalised from two runs to many.
     * Fails with the first run that does not load.
     */
    Result<ProfileDb> stableMerged(const std::string &program,
                                   double max_bias_spread) const;

  private:
    std::string runPath(const std::string &program,
                        unsigned run) const;

    std::string directory;
};

} // namespace bpsim

#endif // BPSIM_PROFILE_REPOSITORY_HH
