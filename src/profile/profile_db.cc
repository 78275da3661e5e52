#include "profile/profile_db.hh"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/logging.hh"
#include "support/stats.hh"

namespace bpsim
{

const BranchProfile *
ProfileDb::find(Addr pc) const
{
    const auto it = profiles.find(pc);
    return it == profiles.end() ? nullptr : &it->second;
}

Count
ProfileDb::totalExecuted() const
{
    Count total = 0;
    for (const auto &[pc, profile] : profiles)
        total += profile.executed;
    return total;
}

Count
ProfileDb::executedAboveBias(double bias) const
{
    Count total = 0;
    for (const auto &[pc, profile] : profiles) {
        if (profile.bias() > bias)
            total += profile.executed;
    }
    return total;
}

void
ProfileDb::mergeAdd(const ProfileDb &other)
{
    for (const auto &[pc, profile] : other.profiles)
        profiles[pc] += profile;
}

void
ProfileDb::save(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        bpsim_fatal("cannot open profile '", path, "' for writing");
    for (const auto &[pc, profile] : profiles) {
        std::fprintf(out,
                     "%#" PRIx64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                     " %" PRIu64 " %" PRIu64 "\n",
                     pc, profile.executed, profile.taken,
                     profile.predicted, profile.correct,
                     profile.collisions);
    }
    std::fclose(out);
}

namespace
{

/**
 * Parse the unsigned field at @p cursor (skipping blanks before it;
 * base 16 with an optional 0x for the PC) and move past it. Rejects a
 * sign, an overflow and a field not followed by a blank or the end.
 */
bool
parseField(const char *&cursor, int base, std::uint64_t &out)
{
    while (*cursor == ' ' || *cursor == '\t')
        ++cursor;
    if (!std::isdigit(static_cast<unsigned char>(*cursor)))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(cursor, &end, base);
    if (errno == ERANGE ||
        (*end != '\0' && *end != ' ' && *end != '\t' && *end != '\r'))
        return false;
    cursor = end;
    return true;
}

/** Why @p line is not a profile record, or null when it is one. */
const char *
parseRecord(const std::string &line, Addr &pc, BranchProfile &profile)
{
    const char *cursor = line.c_str();
    if (!parseField(cursor, 16, pc) ||
        !parseField(cursor, 10, profile.executed) ||
        !parseField(cursor, 10, profile.taken) ||
        !parseField(cursor, 10, profile.predicted) ||
        !parseField(cursor, 10, profile.correct) ||
        !parseField(cursor, 10, profile.collisions))
        return "expected 'pc executed taken predicted correct "
               "collisions'";
    while (*cursor == ' ' || *cursor == '\t' || *cursor == '\r')
        ++cursor;
    if (*cursor != '\0')
        return "trailing characters after the collisions count";
    if (profile.taken > profile.executed)
        return "taken exceeds executed";
    if (profile.predicted > profile.executed)
        return "predicted exceeds executed";
    if (profile.correct > profile.predicted)
        return "correct exceeds predicted";
    return nullptr;
}

} // namespace

Result<ProfileDb>
ProfileDb::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Error(ErrorCode::IoFailure, "cannot open profile")
            .withContext("path " + path);
    ProfileDb db;
    std::string line;
    for (Count number = 1; std::getline(in, line); ++number) {
        Addr pc = 0;
        BranchProfile profile;
        const char *problem = parseRecord(line, pc, profile);
        if (problem == nullptr && !db.profiles.emplace(pc, profile).second)
            problem = "the pc appears on an earlier line";
        if (problem != nullptr) {
            return Error(ErrorCode::IoFailure,
                         std::string("malformed profile line: ") + problem)
                .withContext(path + ":" + std::to_string(number));
        }
    }
    if (in.bad())
        return Error(ErrorCode::IoFailure, "cannot read profile")
            .withContext("path " + path);
    return db;
}

ProfileDb
ProfileDb::collect(BranchStream &stream, Count max_branches)
{
    ProfileDb db;
    BranchRecord record;
    for (Count i = 0; i < max_branches && stream.next(record); ++i)
        db.recordOutcome(record.pc, record.taken);
    return db;
}

CrossInputStats
compareProfiles(const ProfileDb &train, const ProfileDb &ref)
{
    CrossInputStats stats;

    Count ref_static = 0;
    Count ref_dynamic = 0;
    Count seen_static = 0;
    Count seen_dynamic = 0;
    Count flip_static = 0;
    Count flip_dynamic = 0;
    Count under5_static = 0;
    Count under5_dynamic = 0;
    Count over50_static = 0;
    Count over50_dynamic = 0;

    for (const auto &[pc, ref_profile] : ref.entries()) {
        if (ref_profile.executed == 0)
            continue;
        ++ref_static;
        ref_dynamic += ref_profile.executed;

        const BranchProfile *train_profile = train.find(pc);
        if (train_profile == nullptr || train_profile->executed == 0)
            continue;
        ++seen_static;
        seen_dynamic += ref_profile.executed;

        if (train_profile->majorityTaken() !=
            ref_profile.majorityTaken()) {
            ++flip_static;
            flip_dynamic += ref_profile.executed;
        }

        // Bias change measured on the taken-rate axis so direction
        // reversals register as large changes.
        const double change = std::fabs(train_profile->takenRate() -
                                        ref_profile.takenRate());
        if (change < 0.05) {
            ++under5_static;
            under5_dynamic += ref_profile.executed;
        }
        if (change > 0.50) {
            ++over50_static;
            over50_dynamic += ref_profile.executed;
        }
    }

    stats.seenWithTrainStatic = percent(seen_static, ref_static);
    stats.seenWithTrainDynamic = percent(seen_dynamic, ref_dynamic);
    stats.majorityFlipStatic = percent(flip_static, seen_static);
    stats.majorityFlipDynamic = percent(flip_dynamic, seen_dynamic);
    stats.biasChangeUnder5Static = percent(under5_static, seen_static);
    stats.biasChangeUnder5Dynamic =
        percent(under5_dynamic, seen_dynamic);
    stats.biasChangeOver50Static = percent(over50_static, seen_static);
    stats.biasChangeOver50Dynamic =
        percent(over50_dynamic, seen_dynamic);
    return stats;
}

ProfileDb
stableSubset(const ProfileDb &train, const ProfileDb &ref,
             double max_bias_change)
{
    ProfileDb result;
    for (const auto &[pc, train_profile] : train.entries()) {
        const BranchProfile *ref_profile = ref.find(pc);
        if (ref_profile == nullptr || ref_profile->executed == 0)
            continue;
        const double change = std::fabs(train_profile.takenRate() -
                                        ref_profile->takenRate());
        if (change <= max_bias_change)
            result.setEntry(pc, train_profile);
    }
    return result;
}

} // namespace bpsim
