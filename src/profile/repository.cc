#include "profile/repository.hh"

#include <algorithm>
#include <filesystem>

#include "support/logging.hh"

namespace bpsim
{

namespace fs = std::filesystem;

ProfileRepository::ProfileRepository(std::string directory)
    : directory(std::move(directory))
{
    std::error_code ec;
    fs::create_directories(this->directory, ec);
    if (ec) {
        bpsim_fatal("cannot create profile repository '",
                    this->directory, "': ", ec.message());
    }
}

std::string
ProfileRepository::runPath(const std::string &program,
                           unsigned run) const
{
    return directory + "/" + program + ".run" + std::to_string(run) +
           ".profile";
}

unsigned
ProfileRepository::runCount(const std::string &program) const
{
    unsigned runs = 0;
    while (fs::exists(runPath(program, runs)))
        ++runs;
    return runs;
}

unsigned
ProfileRepository::addRun(const std::string &program,
                          const ProfileDb &profile)
{
    const unsigned run = runCount(program);
    profile.save(runPath(program, run));
    return run;
}

Result<ProfileDb>
ProfileRepository::loadRun(const std::string &program,
                           unsigned run) const
{
    if (!fs::exists(runPath(program, run))) {
        return Error(ErrorCode::IoFailure,
                     "no run " + std::to_string(run) + " for program '" +
                         program + "'")
            .withContext("repository " + directory);
    }
    return ProfileDb::load(runPath(program, run));
}

Result<ProfileDb>
ProfileRepository::merged(const std::string &program) const
{
    ProfileDb merged_db;
    const unsigned runs = runCount(program);
    for (unsigned run = 0; run < runs; ++run) {
        Result<ProfileDb> loaded = loadRun(program, run);
        if (!loaded.ok())
            return std::move(loaded.error());
        merged_db.mergeAdd(loaded.value());
    }
    return merged_db;
}

Result<ProfileDb>
ProfileRepository::stableMerged(const std::string &program,
                                double max_bias_spread) const
{
    const unsigned runs = runCount(program);
    std::vector<ProfileDb> run_dbs;
    run_dbs.reserve(runs);
    for (unsigned run = 0; run < runs; ++run) {
        Result<ProfileDb> loaded = loadRun(program, run);
        if (!loaded.ok())
            return std::move(loaded.error());
        run_dbs.push_back(std::move(loaded.value()));
    }

    ProfileDb merged_db;
    for (const auto &db : run_dbs)
        merged_db.mergeAdd(db);

    // Filter: keep a branch only if its per-run taken rates stay
    // within max_bias_spread of each other.
    ProfileDb stable;
    for (const auto &[pc, total] : merged_db.entries()) {
        double lo = 1.0;
        double hi = 0.0;
        bool executed_somewhere = false;
        for (const auto &db : run_dbs) {
            const BranchProfile *record = db.find(pc);
            if (record == nullptr || record->executed == 0)
                continue;
            executed_somewhere = true;
            lo = std::min(lo, record->takenRate());
            hi = std::max(hi, record->takenRate());
        }
        if (executed_somewhere && hi - lo <= max_bias_spread)
            stable.setEntry(pc, total);
    }
    return stable;
}

} // namespace bpsim
