/**
 * @file
 * Reproduces Table 2 of the paper: for each program, the percentage
 * of dynamic branch executions attributable to highly biased branches
 * (bias > 95%), and the prediction accuracy of the five dynamic
 * schemes (8 KB each); plus the bias/accuracy correlation the paper
 * highlights.
 *
 * The accuracies are runner cells; the biased share comes from a
 * bias-only profile of each program's ref replay buffer.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "support/stats.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "table2_bias_accuracy");
    const Count branches = 2'000'000;
    const std::size_t size_bytes = 32768;
    const std::vector<PredictorKind> &kinds = allPredictorKinds();

    const auto journal = makeJournal(options, "table2_bias_accuracy");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        runner.requireBuffer(program, InputSet::Ref, branches);
        for (const auto kind : kinds) {
            ExperimentConfig config =
                baseConfig(kind, size_bytes, StaticScheme::None);
            config.evalBranches = branches;
            config.evalWarmupBranches = options.warmupBranches;
            runner.addCell(program, config);
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Table 2: %% highly biased branches (bias > 95%%) and "
                "prediction accuracy (32 KB predictors, %llu branches)\n\n",
                static_cast<unsigned long long>(branches));
    std::printf("%-10s %10s", "program", "%biased>95");
    for (const auto kind : kinds)
        std::printf(" %9s", predictorKindName(kind).c_str());
    std::printf("\n");

    // Correlation of biased fraction vs accuracy, per predictor kind,
    // over the programs whose cell has a result here.
    std::vector<Correlation> corr(kinds.size());
    std::vector<bool> complete(kinds.size(), true);

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        ReplayBuffer::Cursor stream =
            runner.buffer(p, InputSet::Ref).cursor();
        const ProfileDb profile = ProfileDb::collect(stream, branches);
        const double biased = percent(profile.executedAboveBias(0.95),
                                      profile.totalExecuted());

        std::printf("%-10s %9.1f%%", runner.program(p).name().c_str(),
                    biased);
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const CellResult &c = result.cells[cell++];
            const double accuracy = c.result.stats.accuracyPercent();
            std::printf(" %9s",
                        formatEntry({c}, "%.1f%%", accuracy).c_str());
            if (hasResult(c))
                corr[k].add(biased, accuracy);
            else
                complete[k] = false;
        }
        std::printf("\n");
    }

    std::printf("\nPearson r (biased%% vs accuracy) per scheme:\n");
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        char r[32] = "-";
        if (complete[k])
            std::snprintf(r, sizeof(r), "%.3f", corr[k].r());
        std::printf("  %-9s %s\n", predictorKindName(kinds[k]).c_str(), r);
    }
    std::printf("\nPaper shape: the more highly biased branches a "
                "program executes, the higher every scheme's accuracy "
                "(r close to +1).\n");
    return finishBench(options, "table2_bias_accuracy", runner, result,
                       journal.get());
}
