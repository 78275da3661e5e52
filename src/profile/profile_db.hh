/**
 * @file
 * Profile database: per-branch statistics for a whole program run,
 * with the merge and filtering operations of the paper's §5.1 (the
 * Spike profile-database workflow).
 */

#ifndef BPSIM_PROFILE_PROFILE_DB_HH
#define BPSIM_PROFILE_PROFILE_DB_HH

#include <string>
#include <unordered_map>

#include "profile/branch_profile.hh"
#include "support/error.hh"
#include "support/types.hh"
#include "trace/branch_stream.hh"

namespace bpsim
{

/** Map from branch PC to its profile record. */
class ProfileDb
{
  public:
    using Map = std::unordered_map<Addr, BranchProfile>;

    /** Record one executed outcome. */
    void
    recordOutcome(Addr pc, bool taken)
    {
        auto &profile = profiles[pc];
        ++profile.executed;
        if (taken)
            ++profile.taken;
    }

    /** Record one dynamic prediction for the branch. */
    void
    recordPrediction(Addr pc, bool correct)
    {
        auto &profile = profiles[pc];
        ++profile.predicted;
        if (correct)
            ++profile.correct;
    }

    /** Attribute @p n predictor-table collisions to the branch. */
    void
    recordCollisions(Addr pc, Count n)
    {
        profiles[pc].collisions += n;
    }

    /**
     * Accumulate pre-aggregated counts for one branch. Equivalent to
     * replaying the individual record*() calls the counts summarise;
     * the fused replay kernels use this to flush their dense per-site
     * accumulators.
     */
    void
    addCounts(Addr pc, const BranchProfile &delta)
    {
        profiles[pc] += delta;
    }

    /** Profile of @p pc, or null if the branch never executed. */
    const BranchProfile *find(Addr pc) const;

    /** Number of distinct static branches seen. */
    std::size_t size() const { return profiles.size(); }

    /** Total dynamic branch executions recorded. */
    Count totalExecuted() const;

    /** Dynamic executions attributable to branches above @p bias. */
    Count executedAboveBias(double bias) const;

    /** Whole-map access for iteration. */
    const Map &entries() const { return profiles; }

    /** Insert or overwrite the record of one branch. */
    void
    setEntry(Addr pc, const BranchProfile &profile)
    {
        profiles[pc] = profile;
    }

    /** Accumulate another database's counts into this one. */
    void mergeAdd(const ProfileDb &other);

    /** Save as text ("pc executed taken predicted correct" lines). */
    void save(const std::string &path) const;

    /**
     * Load a database saved by save(). A file that cannot be opened, a
     * malformed line, a repeated PC or impossible counts (taken or
     * predicted above executed, correct above predicted) fail as
     * io_failure naming the file and line; nothing is returned in
     * part.
     */
    static Result<ProfileDb> load(const std::string &path);

    /**
     * Collect a bias-only profile by running @p stream for at most
     * @p max_branches records.
     */
    static ProfileDb collect(BranchStream &stream, Count max_branches);

  private:
    Map profiles;
};

/**
 * Train-vs-ref drift statistics (the paper's Table 5). "Static"
 * percentages weigh every branch equally; "dynamic" percentages weigh
 * branches by their execution count under the reference input.
 */
struct CrossInputStats
{
    double seenWithTrainStatic = 0.0;
    double seenWithTrainDynamic = 0.0;
    double majorityFlipStatic = 0.0;
    double majorityFlipDynamic = 0.0;
    double biasChangeUnder5Static = 0.0;
    double biasChangeUnder5Dynamic = 0.0;
    double biasChangeOver50Static = 0.0;
    double biasChangeOver50Dynamic = 0.0;
};

/** Compare a train profile against a ref profile (Table 5). */
CrossInputStats compareProfiles(const ProfileDb &train,
                                const ProfileDb &ref);

/**
 * The §5.1 merge filter: keep only the train-profile entries of
 * branches whose bias changed by at most @p max_bias_change between
 * the two profiles (and which appear in both). Static selection run
 * on the result avoids branches whose behaviour is input-dependent.
 */
ProfileDb stableSubset(const ProfileDb &train, const ProfileDb &ref,
                       double max_bias_change);

} // namespace bpsim

#endif // BPSIM_PROFILE_PROFILE_DB_HH
