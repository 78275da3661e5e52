/**
 * @file
 * Reproduces Figures 1-6 of the paper: MISP/KI and total collision
 * counts versus gshare predictor size, with and without Static_Acc
 * static prediction, one series pair per program.
 *
 * Paper shapes to verify:
 *  - static prediction always reduces MISP/KI for gshare, more so at
 *    smaller sizes;
 *  - total collisions almost always drop with static prediction;
 *  - gcc keeps improving with capacity (aliasing-dominated), ijpeg
 *    barely moves (little aliasing).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

/** A cell's total collisions, or "-" without a result here. */
std::string
formatCollisions(const CellResult &cell)
{
    return formatEntry({cell}, "%llu",
                       static_cast<unsigned long long>(
                           cell.result.stats.collisions.collisions));
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "fig1_6_gshare_scaling");
    const std::size_t sizes_kb[] = {1, 2, 4, 8, 16, 32, 64};

    const auto journal = makeJournal(options, "fig1_6_gshare_scaling");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const std::size_t kb : sizes_kb) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::StaticAcc}) {
                ExperimentConfig config =
                    baseConfig(PredictorKind::Gshare, kb * 1024, scheme);
                config.evalWarmupBranches = options.warmupBranches;
                runner.addCell(program, config);
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Figures 1-6: gshare size sweep, no-static vs "
                "Static_Acc (self-trained)\n");

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        std::printf("\n[%s]\n", runner.program(p).name().c_str());
        std::printf("%6s %12s %12s %8s %14s %14s\n", "size", "MISP/KI",
                    "MISP/KI+st", "improv", "collisions",
                    "collisions+st");
        for (const std::size_t kb : sizes_kb) {
            const CellResult &base = result.cells[cell++];
            const CellResult &with = result.cells[cell++];
            std::printf("%4zuKB %12s %12s %8s %14s %14s\n", kb,
                        formatMispKi(base).c_str(),
                        formatMispKi(with).c_str(),
                        formatImprovement(base, with).c_str(),
                        formatCollisions(base).c_str(),
                        formatCollisions(with).c_str());
        }
    }
    return finishBench(options, "fig1_6_gshare_scaling", runner, result,
                       journal.get());
}
