/**
 * @file
 * Reproduces Table 2 of the paper: for each program, the percentage
 * of dynamic branch executions attributable to highly biased branches
 * (bias > 95%), and the prediction accuracy of the five dynamic
 * schemes (8 KB each); plus the bias/accuracy correlation the paper
 * highlights.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/engine.hh"
#include "core/experiment.hh"
#include "support/stats.hh"
#include "workload/specint.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "table2_bias_accuracy");
    const auto journal = makeJournal(options, "table2_bias_accuracy");
    auto run = obs::Span::run(journal.get(), runBeginFields(options.threads));
    const Count branches = 2'000'000;
    const std::size_t size_bytes = 32768;

    std::printf("Table 2: %% highly biased branches (bias > 95%%) and "
                "prediction accuracy (32 KB predictors, %llu branches)\n\n",
                static_cast<unsigned long long>(branches));
    std::printf("%-10s %10s", "program", "%biased>95");
    for (const auto kind : allPredictorKinds())
        std::printf(" %9s", predictorKindName(kind).c_str());
    std::printf("\n");

    // Correlation of biased fraction vs accuracy, per predictor kind.
    std::vector<Correlation> corr(allPredictorKinds().size());

    for (const auto program_id : allSpecPrograms()) {
        SyntheticProgram program =
            makeSpecProgram(program_id, InputSet::Ref);
        auto section = obs::Span::phase(
            journal.get(), program.name(), "bench." + program.name());

        // Bias-only profile to measure the biased fraction.
        program.reset();
        ProfileDb profile = ProfileDb::collect(program, branches);
        const double biased = percent(profile.executedAboveBias(0.95),
                                      profile.totalExecuted());

        std::printf("%-10s %9.1f%%", program.name().c_str(), biased);
        std::size_t i = 0;
        for (const auto kind : allPredictorKinds()) {
            SimStats stats = runBaseline(program, kind, size_bytes,
                                         branches);
            std::printf(" %8.1f%%", stats.accuracyPercent());
            corr[i].add(biased, stats.accuracyPercent());
            ++i;
        }
        std::printf("\n");
    }

    std::printf("\nPearson r (biased%% vs accuracy) per scheme:\n");
    std::size_t i = 0;
    for (const auto kind : allPredictorKinds()) {
        std::printf("  %-9s %.3f\n", predictorKindName(kind).c_str(),
                    corr[i].r());
        ++i;
    }
    std::printf("\nPaper shape: the more highly biased branches a "
                "program executes, the higher every scheme's accuracy "
                "(r close to +1).\n");
    run.close();
    writeJournal(options, journal.get());
    return 0;
}
