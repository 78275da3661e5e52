/**
 * @file
 * Ablation bench for the paper's stated future work (§5): selecting
 * branches for static prediction by their *collision involvement*
 * rather than by bias alone. Compares, for gshare across sizes on
 * the two alias-dominated programs (go, gcc):
 *
 *   - Static_95   (bias-only selection, the paper's scheme)
 *   - Static_Alias (bias > 90% AND collision rate above threshold)
 *
 * plus the hint counts, showing Static_Alias spends far fewer hint
 * bits for a comparable share of the aliasing relief. Runs as a
 * parallel matrix over shared replay buffers.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "ablation_alias_selection");
    const std::size_t sizes_kb[] = {1, 2, 4, 8};
    const StaticScheme schemes[] = {StaticScheme::None,
                                    StaticScheme::Static95,
                                    StaticScheme::StaticAlias};

    const auto journal =
        makeJournal(options, "ablation_alias_selection");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : {SpecProgram::Go, SpecProgram::Gcc}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const std::size_t kb : sizes_kb) {
            for (const auto scheme : schemes) {
                ExperimentConfig config = baseConfig(
                    PredictorKind::Gshare, kb * 1024, scheme);
                config.evalWarmupBranches = options.warmupBranches;
                runner.addCell(program, config);
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Ablation: bias-only vs collision-aware static "
                "selection (gshare)\n\n");
    std::printf("%-8s %6s %10s | %10s %8s | %10s %8s\n", "program",
                "size", "base", "static95", "hints", "st_alias",
                "hints");

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        for (const std::size_t kb : sizes_kb) {
            const CellResult &base = result.cells[cell++];
            const CellResult &s95 = result.cells[cell++];
            const CellResult &alias = result.cells[cell++];
            std::printf("%-8s %4zuKB %10s | %10s %8s | %10s %8s\n",
                        runner.program(p).name().c_str(), kb,
                        formatMispKi(base).c_str(),
                        formatMispKi(s95).c_str(),
                        formatEntry({s95}, "%zu", s95.result.hintCount)
                            .c_str(),
                        formatMispKi(alias).c_str(),
                        formatEntry({alias}, "%zu",
                                    alias.result.hintCount)
                            .c_str());
        }
    }

    std::printf("\nExpected shape: static_alias selects fewer "
                "branches (only the contested ones) while capturing "
                "much of the same MISP/KI relief at small sizes.\n");
    return finishBench(options, "ablation_alias_selection", runner,
                       result, journal.get());
}
