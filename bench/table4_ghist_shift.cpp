/**
 * @file
 * Reproduces Table 4 of the paper: the effect of shifting the
 * outcomes of statically predicted branches into the global history
 * register, for 2bcgskew at 32 and 64 KB, under both static schemes.
 *
 * Paper shapes to verify: not every program benefits from shifting,
 * but whenever a static scheme *degrades* MISP/KI, adding the shift
 * recovers the loss (the statically predicted branches' outcomes
 * carry correlation information the history-based banks need).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

double
improvementPct(double base, double with)
{
    return base == 0.0 ? 0.0 : 100.0 * (base - with) / base;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "table4_ghist_shift");
    const std::size_t sizes_kb[] = {32, 64};
    const StaticScheme schemes[] = {StaticScheme::Static95,
                                    StaticScheme::StaticAcc};
    const ShiftPolicy shifts[] = {ShiftPolicy::NoShift,
                                  ShiftPolicy::ShiftOutcome};

    const auto journal = makeJournal(options, "table4_ghist_shift");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const std::size_t kb : sizes_kb) {
            ExperimentConfig config =
                baseConfig(PredictorKind::TwoBcGskew, kb * 1024,
                           StaticScheme::None);
            config.evalWarmupBranches = options.warmupBranches;
            runner.addCell(program, config);
            for (const auto scheme : schemes) {
                for (const auto shift : shifts) {
                    config.scheme = scheme;
                    config.shift = shift;
                    runner.addCell(program, config);
                }
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Table 4: 2bcgskew, %% MISP/KI improvement over the "
                "pure dynamic baseline\n\n");
    std::printf("%-10s %6s %10s %12s %10s %12s\n", "program", "size",
                "static95", "static95+sh", "staticAcc",
                "staticAcc+sh");

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        for (const std::size_t kb : sizes_kb) {
            const CellResult &none = result.cells[cell++];
            std::string columns[4];
            for (std::string &column : columns) {
                const CellResult &with = result.cells[cell++];
                column = formatEntry(
                    {none, with}, "%+.1f%%",
                    improvementPct(none.result.stats.mispKi(),
                                   with.result.stats.mispKi()));
            }
            std::printf("%-10s %4zuKB %10s %12s %10s %12s\n",
                        runner.program(p).name().c_str(), kb,
                        columns[0].c_str(), columns[1].c_str(),
                        columns[2].c_str(), columns[3].c_str());
        }
    }

    std::printf("\nPaper shape: where a plain scheme degrades "
                "(negative), its +shift column recovers.\n");
    return finishBench(options, "table4_ghist_shift", runner, result,
                       journal.get());
}
