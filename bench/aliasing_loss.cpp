/**
 * @file
 * Companion measurement to the whole paper: how many mispredictions
 * per KI are *caused by aliasing* — the gap between a real gshare and
 * an interference-free gshare with the same history length — and what
 * fraction of that aliasing loss each static scheme recovers.
 *
 * loss(size)        = MISP/KI(gshare, size) - MISP/KI(ideal)
 * recovered(scheme) = (MISP/KI(gshare) - MISP/KI(gshare+scheme))
 *                     / loss
 *
 * The interference-free bound is the registry's "ideal" predictor,
 * whose default history is the 13 bits a 4 KB gshare indexes with.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "aliasing_loss");
    const std::size_t size_bytes = 4096; // 13-bit index and history

    const auto journal = makeJournal(options, "aliasing_loss");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        ExperimentConfig real = baseConfig(
            PredictorKind::Gshare, size_bytes, StaticScheme::None);
        real.evalWarmupBranches = options.warmupBranches;
        runner.addCell(program, real);

        ExperimentConfig ideal = real;
        ideal.predictor = "ideal";
        runner.addCell(program, ideal);

        for (const auto scheme :
             {StaticScheme::Static95, StaticScheme::StaticAcc}) {
            real.scheme = scheme;
            runner.addCell(program, real);
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Aliasing loss at gshare 4 KB (vs interference-free "
                "gshare, same 13-bit history)\n\n");
    std::printf("%-10s %8s %8s %8s | %10s %10s\n", "program", "real",
                "ideal", "loss", "s95 rec.", "acc rec.");

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        const CellResult &real = result.cells[cell++];
        const CellResult &ideal = result.cells[cell++];
        const double real_misp = real.result.stats.mispKi();
        const double loss = real_misp - ideal.result.stats.mispKi();
        const auto recovered = [&](const CellResult &with) {
            return formatEntry(
                {real, ideal, with}, "%.1f%%",
                loss > 0.0 ? 100.0 *
                                 (real_misp - with.result.stats.mispKi()) /
                                 loss
                           : 0.0);
        };
        const std::string s95 = recovered(result.cells[cell++]);
        const std::string acc = recovered(result.cells[cell++]);
        std::printf("%-10s %8s %8s %8s | %10s %10s\n",
                    runner.program(p).name().c_str(),
                    formatMispKi(real).c_str(),
                    formatMispKi(ideal).c_str(),
                    formatEntry({real, ideal}, "%.2f", loss).c_str(),
                    s95.c_str(), acc.c_str());
    }

    std::printf("\nReading: 'loss' is the misprediction cost of "
                "destructive aliasing; the recovery columns show how "
                "much of it profile-directed static prediction buys "
                "back (Static_Acc can exceed 100%% because it also "
                "statically fixes branches the ideal predictor "
                "mispredicts).\n");
    return finishBench(options, "aliasing_loss", runner, result,
                       journal.get());
}
