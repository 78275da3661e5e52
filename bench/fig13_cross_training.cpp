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
    const std::size_t size_bytes = 16384;

    const auto journal = makeJournal(options, "fig13_cross_training");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        ExperimentConfig config = baseConfig(
            PredictorKind::Gshare, size_bytes, StaticScheme::None);
        config.evalWarmupBranches = options.warmupBranches;
        runner.addCell(program, config);

        config.scheme = StaticScheme::Static95;
        config.profileInput = InputSet::Ref; // self-trained
        runner.addCell(program, config);

        config.profileInput = InputSet::Train; // naive cross
        runner.addCell(program, config);

        config.filterUnstable = true; // merged/filtered profile
        runner.addCell(program, config);
    }
    const MatrixResult result = runner.run();

    std::printf("Figure 13: cross-training, gshare 16 KB + Static_95 "
                "(MISP/KI)\n\n");
    std::printf("%-10s %10s %10s %12s %14s\n", "program", "none",
                "self", "naive-cross", "filtered-cross");

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        const CellResult &none = result.cells[cell++];
        const CellResult &self_trained = result.cells[cell++];
        const CellResult &naive = result.cells[cell++];
        const CellResult &filtered = result.cells[cell++];
        std::printf("%-10s %10s %10s %12s %14s\n",
                    runner.program(p).name().c_str(),
                    formatMispKi(none).c_str(),
                    formatMispKi(self_trained).c_str(),
                    formatMispKi(naive).c_str(),
                    formatMispKi(filtered).c_str());
    }

    std::printf("\nPaper shape: naive cross-training degrades perl "
                "and m88ksim sharply; the >5%% bias-change filter "
                "recovers them.\n");
    return finishBench(options, "fig13_cross_training", runner, result,
                       journal.get());
}
