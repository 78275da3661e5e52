/**
 * @file
 * Quickstart: build a synthetic workload, run a dynamic predictor
 * over it, then add profile-guided static hints and compare.
 *
 * This is the minimal end-to-end use of the library:
 *
 *   1. make a workload                 (makeSpecProgram)
 *   2. describe each experiment cell   (ExperimentConfig: a baseline
 *      with StaticScheme::None, a combined static/dynamic cell with
 *      StaticScheme::Static95)
 *   3. run both two-phase cells        (ExperimentRunner)
 */

#include <cstdio>
#include <utility>

#include "core/runner.hh"
#include "workload/specint.hh"

using namespace bpsim;

int
main()
{
    // A synthetic stand-in for SPECINT95 gcc, reference input.
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    std::printf("program: %s (%zu static branches)\n",
                program.name().c_str(), program.staticBranchCount());

    ExperimentRunner runner;
    const std::size_t gcc = runner.addProgram(std::move(program));

    // Baseline: a 4 KB gshare, no static prediction.
    const Count branches = 2'000'000;
    ExperimentConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 4096;
    config.scheme = StaticScheme::None;
    config.profileBranches = branches / 2;
    config.evalBranches = branches;
    runner.addCell(gcc, config);

    // Combined: profile the program, statically predict every branch
    // whose bias exceeds 95%, re-run.
    config.scheme = StaticScheme::Static95;
    runner.addCell(gcc, config);

    const MatrixResult matrix = runner.run();
    for (const CellResult &cell : matrix.cells) {
        if (!cell.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         cell.error->describe().c_str());
            return 1;
        }
    }
    const SimStats &base = matrix.cells[0].result.stats;
    const ExperimentResult &result = matrix.cells[1].result;
    std::printf("gshare 4KB baseline:     MISP/KI %6.2f  "
                "accuracy %5.2f%%  collisions %llu\n",
                base.mispKi(), base.accuracyPercent(),
                static_cast<unsigned long long>(
                    base.collisions.collisions));
    std::printf("gshare 4KB + static_95:  MISP/KI %6.2f  "
                "accuracy %5.2f%%  collisions %llu\n",
                result.stats.mispKi(),
                result.stats.accuracyPercent(),
                static_cast<unsigned long long>(
                    result.stats.collisions.collisions));
    std::printf("static hints: %zu branches, handled %5.2f%% of "
                "dynamic stream\n",
                result.hintCount, result.stats.staticShare());
    std::printf("MISP/KI improvement: %.1f%%\n",
                mispKiImprovement(base, result.stats));
    return 0;
}
