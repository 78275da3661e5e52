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
    const std::size_t sizes_kb[] = {2, 4, 8, 16, 32};
    const SpecProgram programs[] = {SpecProgram::Go, SpecProgram::Gcc};
    const StaticScheme schemes[] = {StaticScheme::None,
                                    StaticScheme::Static95,
                                    StaticScheme::StaticAcc};

    const auto journal = makeJournal(options, "table3_2bcgskew_small");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : programs)
        runner.addProgram(makeSpecProgram(id, InputSet::Ref));
    for (const std::size_t kb : sizes_kb) {
        for (std::size_t p = 0; p < runner.programCount(); ++p) {
            for (const auto scheme : schemes) {
                ExperimentConfig config = baseConfig(
                    PredictorKind::TwoBcGskew, kb * 1024, scheme);
                config.evalWarmupBranches = options.warmupBranches;
                runner.addCell(p, config);
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Table 3: 2bcgskew MISP/KI improvement with static "
                "prediction (go & gcc)\n\n");
    std::printf("%8s", "size");
    for (const auto id : programs) {
        const std::string name = specProgramName(id);
        std::printf(" | %8s:s95 %8s:acc", name.c_str(), name.c_str());
    }
    std::printf("\n");

    std::size_t cell = 0;
    for (const std::size_t kb : sizes_kb) {
        std::printf("%6zuKB", kb);
        for (std::size_t p = 0; p < runner.programCount(); ++p) {
            const CellResult &none = result.cells[cell++];
            const CellResult &s95 = result.cells[cell++];
            const CellResult &acc = result.cells[cell++];
            std::printf(" | %12s %12s",
                        formatImprovement(none, s95).c_str(),
                        formatImprovement(none, acc).c_str());
        }
        std::printf("\n");
    }

    std::printf("\nPaper shape: gains shrink with size; gcc > go at "
                "every size; go goes negative at 16-32 KB.\n");
    return finishBench(options, "table3_2bcgskew_small", runner, result,
                       journal.get());
}
