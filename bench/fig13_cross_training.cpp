/**
 * @file
 * Reproduces Figure 13 of the paper: the effect of cross-training on
 * profile-based static prediction. For a 16 KB gshare with Static_95,
 * four bars per program:
 *
 *   1. no static prediction,
 *   2. self-trained static prediction (profile on ref, run on ref),
 *   3. naive cross-training (profile on train, run on ref),
 *   4. cross-training with the merge filter (drop branches whose
 *      bias changes >5% between the profiles).
 *
 * Paper shapes to verify: naive cross-training badly degrades perl
 * and m88ksim (hot branches reverse direction between inputs); the
 * filtered merge recovers them to near self-trained quality.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "fig13_cross_training");
    const auto journal = makeJournal(options, "fig13_cross_training");
    auto run = obs::Span::run(journal.get(), runBeginFields(options.threads));
    const std::size_t size_bytes = 16384;

    std::printf("Figure 13: cross-training, gshare 16 KB + Static_95 "
                "(MISP/KI)\n\n");
    std::printf("%-10s %10s %10s %12s %14s\n", "program", "none",
                "self", "naive-cross", "filtered-cross");

    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Ref);
        auto section = obs::Span::phase(
            journal.get(), program.name(), "bench." + program.name());

        ExperimentConfig config = baseConfig(
            PredictorKind::Gshare, size_bytes, StaticScheme::None);
        config.counters = obs::countersOf(journal.get());
        const double none =
            runExperiment(program, config).stats.mispKi();

        config.scheme = StaticScheme::Static95;
        config.profileInput = InputSet::Ref; // self-trained
        const double self_trained =
            runExperiment(program, config).stats.mispKi();

        config.profileInput = InputSet::Train; // naive cross
        const double naive =
            runExperiment(program, config).stats.mispKi();

        config.filterUnstable = true; // merged/filtered profile
        const double filtered =
            runExperiment(program, config).stats.mispKi();

        std::printf("%-10s %10.2f %10.2f %12.2f %14.2f\n",
                    program.name().c_str(), none, self_trained, naive,
                    filtered);
    }

    std::printf("\nPaper shape: naive cross-training degrades perl "
                "and m88ksim sharply; the >5%% bias-change filter "
                "recovers them.\n");
    run.close();
    writeJournal(options, journal.get());
    return 0;
}
