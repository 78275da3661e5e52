/**
 * @file
 * Compare every dynamic prediction scheme across a range of hardware
 * budgets on one workload — the "which predictor should I use at this
 * size" question the library answers out of the box.
 *
 * Every (scheme, size) pair is one baseline cell of an
 * ExperimentRunner, so the program's stream is generated once and the
 * cells run across the machine's cores.
 *
 * Usage:
 *   predictor_zoo [program]        (default: gcc)
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hh"
#include "predictor/factory.hh"
#include "workload/specint.hh"

using namespace bpsim;

int
main(int argc, char **argv)
{
    const std::string program_name = argc > 1 ? argv[1] : "gcc";
    const SpecProgram id = specProgramFromName(program_name);
    const Count branches = 2'000'000;
    const std::vector<std::size_t> sizes_kb = {1, 2, 4, 8, 16, 32, 64};
    // Extension predictors (not part of the paper's five schemes).
    const std::vector<std::string> extensions = {"agree", "tournament"};

    SyntheticProgram program = makeSpecProgram(id, InputSet::Ref);
    std::printf("MISP/KI for %s (%zu static branches), %llu branches "
                "per run\n\n",
                program.name().c_str(), program.staticBranchCount(),
                static_cast<unsigned long long>(branches));

    ExperimentRunner runner;
    const std::size_t workload = runner.addProgram(std::move(program));
    ExperimentConfig config;
    config.scheme = StaticScheme::None;
    config.evalBranches = branches;
    for (const std::size_t kb : sizes_kb) {
        for (const auto kind : allPredictorKinds()) {
            config.kind = kind;
            config.sizeBytes = kb * 1024;
            runner.addCell(workload, config);
        }
    }
    config.sizeBytes = 8192;
    for (const std::string &name : extensions) {
        config.predictor = name;
        runner.addCell(workload, config);
    }
    const MatrixResult matrix = runner.run();
    for (const CellResult &cell : matrix.cells) {
        if (!cell.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         cell.error->describe().c_str());
            return 1;
        }
    }

    std::printf("%6s", "size");
    for (const auto kind : allPredictorKinds())
        std::printf(" %10s", predictorKindName(kind).c_str());
    std::printf("\n");

    std::size_t cell = 0;
    for (const std::size_t kb : sizes_kb) {
        std::printf("%4zuKB", kb);
        double best = 1e9;
        std::string best_name;
        for (const auto kind : allPredictorKinds()) {
            const double misp_ki =
                matrix.cells[cell++].result.stats.mispKi();
            std::printf(" %10.2f", misp_ki);
            if (misp_ki < best) {
                best = misp_ki;
                best_name = predictorKindName(kind);
            }
        }
        std::printf("   <- best: %s\n", best_name.c_str());
    }

    std::printf("\nextensions (8 KB):");
    for (const std::string &name : extensions) {
        std::printf("  %s=%.2f", name.c_str(),
                    matrix.cells[cell++].result.stats.mispKi());
    }
    std::printf("\n\nExpected shape: 2bcgskew wins at most sizes; "
                "bimodal stops scaling early; ghist/gshare keep "
                "improving with capacity.\n");
    return 0;
}
