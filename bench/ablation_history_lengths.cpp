/**
 * @file
 * Ablation bench (DESIGN.md decision #2): sweep the per-bank history
 * lengths of 2bcgskew around the auto defaults and report MISP/KI on
 * go and gcc. The paper states it "selected the best history lengths"
 * for its 2bcgskew simulations; this bench shows how sensitive the
 * result is to that choice on our workloads.
 *
 * The sweep runs as a parallel matrix: each cell names its lengths
 * in ExperimentConfig::historyLengths, which join its identity
 * ("2bcgskew:8192:h3,8,6"), and replays the shared per-program buffer.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "ablation_history_lengths");
    const std::size_t size_bytes = 8192; // 13 index bits per bank

    const BitCount g0_options[] = {3, 6, 10};
    const BitCount g1_options[] = {8, 13, 20};
    const BitCount meta_options[] = {6};

    const auto journal =
        makeJournal(options, "ablation_history_lengths");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    std::size_t program_index[2];
    std::size_t next_program = 0;
    for (const auto id : {SpecProgram::Go, SpecProgram::Gcc}) {
        program_index[next_program++] =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
    }

    for (const BitCount g0 : g0_options) {
        for (const BitCount g1 : g1_options) {
            for (const BitCount meta : meta_options) {
                for (const std::size_t program : program_index) {
                    ExperimentConfig config =
                        baseConfig(PredictorKind::TwoBcGskew, size_bytes,
                                   StaticScheme::None);
                    config.evalWarmupBranches = options.warmupBranches;
                    config.historyLengths = {g0, g1, meta};
                    runner.addCell(program, config);
                }
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Ablation: 2bcgskew history lengths (8 KB), MISP/KI\n"
                "\n");
    std::printf("%6s %6s %6s | %10s %10s\n", "hG0", "hG1", "hMeta",
                "go", "gcc");

    std::size_t cell = 0;
    for (const BitCount g0 : g0_options) {
        for (const BitCount g1 : g1_options) {
            for (const BitCount meta : meta_options) {
                std::printf("%6u %6u %6u |", g0, g1, meta);
                for (std::size_t p = 0; p < 2; ++p)
                    std::printf(" %10s",
                                formatMispKi(result.cells[cell++]).c_str());
                std::printf("\n");
            }
        }
    }

    std::printf("\nAuto defaults at this size: hG0=6 hG1=13 hMeta=6.\n");
    return finishBench(options, "ablation_history_lengths", runner,
                       result, journal.get());
}
