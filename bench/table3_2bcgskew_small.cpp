/**
 * @file
 * Reproduces Table 3 of the paper: percentage MISP/KI improvement of
 * 2bcgskew with Static_95 and Static_Acc for go and gcc at sizes
 * 2-32 KB.
 *
 * Paper shapes to verify: improvements shrink as the predictor grows
 * (and can go negative for go at large sizes); gcc benefits more than
 * go at every size; Static_Acc beats Static_95.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "table3_2bcgskew_small");
    const auto journal = makeJournal(options, "table3_2bcgskew_small");
    auto run = obs::Span::run(journal.get(), runBeginFields(options.threads));
    const std::size_t sizes_kb[] = {2, 4, 8, 16, 32};
    const SpecProgram programs[] = {SpecProgram::Go, SpecProgram::Gcc};

    std::printf("Table 3: 2bcgskew MISP/KI improvement with static "
                "prediction (go & gcc)\n\n");
    std::printf("%8s", "size");
    for (const auto id : programs) {
        const std::string name = specProgramName(id);
        std::printf(" | %8s:s95 %8s:acc", name.c_str(), name.c_str());
    }
    std::printf("\n");

    for (const std::size_t kb : sizes_kb) {
        std::printf("%6zuKB", kb);
        const std::string size = std::to_string(kb) + "KB";
        auto section =
            obs::Span::phase(journal.get(), size, "bench." + size);
        for (const auto id : programs) {
            SyntheticProgram program =
                makeSpecProgram(id, InputSet::Ref);

            ExperimentConfig config =
                baseConfig(PredictorKind::TwoBcGskew, kb * 1024,
                           StaticScheme::None);
            config.counters = obs::countersOf(journal.get());
            const double none =
                runExperiment(program, config).stats.mispKi();

            config.scheme = StaticScheme::Static95;
            const double s95 =
                runExperiment(program, config).stats.mispKi();

            config.scheme = StaticScheme::StaticAcc;
            const double acc =
                runExperiment(program, config).stats.mispKi();

            std::printf(" | %12s %12s",
                        formatImprovement(none, s95).c_str(),
                        formatImprovement(none, acc).c_str());
        }
        std::printf("\n");
    }

    std::printf("\nPaper shape: gains shrink with size; gcc > go at "
                "every size; go goes negative at 16-32 KB.\n");
    run.close();
    writeJournal(options, journal.get());
    return 0;
}
