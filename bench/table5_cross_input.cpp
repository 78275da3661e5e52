/**
 * @file
 * Reproduces Table 5 of the paper: how branch behaviour changes when
 * the input moves from 'train' to 'ref' — profile coverage, majority
 * direction reversals, and the size of bias drifts, each weighted
 * statically (per branch) and dynamically (per execution).
 *
 * Each program's train and ref streams are materialized once into
 * replay buffers and the per-program profile comparisons run across
 * the runner's thread pool.
 *
 * Paper shapes to verify: train covers almost all ref branches except
 * for perl; a non-trivial fraction of branches flips its majority
 * direction (largest for perl/m88ksim where the flipping branches are
 * hot); most branches move by <5% bias, a small tail by >50%.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "profile/profile_db.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "table5_cross_input");
    const Count profile_len = 4 * evalBranches;

    const auto journal = makeJournal(options, "table5_cross_input");
    auto run = obs::Span::run(journal.get(), runBeginFields(options.threads));
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Train));
        runner.requireBuffer(program, InputSet::Train, profile_len);
        runner.requireBuffer(program, InputSet::Ref, profile_len);
    }
    {
        auto section = obs::Span::phase(
            journal.get(), "materialize", "bench.materialize");
        runner.materialize();
    }

    std::vector<CrossInputStats> rows(runner.programCount());
    {
        auto section = obs::Span::phase(
            journal.get(), "compare_profiles", "bench.compare_profiles");
        runner.pool().parallelFor(
            runner.programCount(), [&](std::size_t p) {
                ReplayBuffer::Cursor train_stream =
                    runner.buffer(p, InputSet::Train).cursor();
                const ProfileDb train =
                    ProfileDb::collect(train_stream, profile_len);

                ReplayBuffer::Cursor ref_stream =
                    runner.buffer(p, InputSet::Ref).cursor();
                const ProfileDb ref =
                    ProfileDb::collect(ref_stream, profile_len);

                rows[p] = compareProfiles(train, ref);
            });
    }

    std::printf("Table 5: branch behaviour, train vs ref input "
                "(static%% / dynamic%%)\n\n");
    std::printf("%-10s %16s %18s %18s %18s\n", "program",
                "seen w/ train", "majority flip", "bias chg <5%",
                "bias chg >50%");

    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        const CrossInputStats &stats = rows[p];
        std::printf("%-10s %7.1f%% / %5.1f%% %8.1f%% / %5.1f%% "
                    "%8.1f%% / %5.1f%% %8.1f%% / %5.1f%%\n",
                    runner.program(p).name().c_str(),
                    stats.seenWithTrainStatic,
                    stats.seenWithTrainDynamic,
                    stats.majorityFlipStatic,
                    stats.majorityFlipDynamic,
                    stats.biasChangeUnder5Static,
                    stats.biasChangeUnder5Dynamic,
                    stats.biasChangeOver50Static,
                    stats.biasChangeOver50Dynamic);
    }
    run.close();
    writeJournal(options, journal.get());
    return 0;
}
