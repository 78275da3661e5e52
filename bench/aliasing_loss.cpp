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
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/engine.hh"
#include "predictor/gshare.hh"
#include "predictor/ideal_gshare.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions bench_options =
        parseBenchOptions(argc, argv, "aliasing_loss");
    const auto journal = makeJournal(bench_options, "aliasing_loss");
    auto run =
        obs::Span::run(journal.get(), runBeginFields(bench_options.threads));
    const std::size_t size_bytes = 4096; // 13-bit index and history

    std::printf("Aliasing loss at gshare 4 KB (vs interference-free "
                "gshare, same 13-bit history)\n\n");
    std::printf("%-10s %8s %8s %8s | %10s %10s\n", "program", "real",
                "ideal", "loss", "s95 rec.", "acc rec.");

    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Ref);
        auto section = obs::Span::phase(
            journal.get(), program.name(), "bench." + program.name());

        SimOptions options;
        options.maxBranches = evalBranches;
        options.counters = obs::countersOf(journal.get());

        Gshare real(size_bytes);
        const double real_misp =
            simulate(real, program, options).mispKi();

        IdealGshare ideal(13);
        const double ideal_misp =
            simulate(ideal, program, options).mispKi();

        const double loss = real_misp - ideal_misp;

        auto recovered = [&](StaticScheme scheme) {
            ExperimentConfig config = baseConfig(
                PredictorKind::Gshare, size_bytes, scheme);
            config.counters = obs::countersOf(journal.get());
            const double with =
                runExperiment(program, config).stats.mispKi();
            return loss > 0.0
                       ? 100.0 * (real_misp - with) / loss
                       : 0.0;
        };

        const double s95 = recovered(StaticScheme::Static95);
        const double acc = recovered(StaticScheme::StaticAcc);
        std::printf("%-10s %8.2f %8.2f %8.2f | %9.1f%% %9.1f%%\n",
                    program.name().c_str(), real_misp, ideal_misp,
                    loss, s95, acc);
    }

    std::printf("\nReading: 'loss' is the misprediction cost of "
                "destructive aliasing; the recovery columns show how "
                "much of it profile-directed static prediction buys "
                "back (Static_Acc can exceed 100%% because it also "
                "statically fixes branches the ideal predictor "
                "mispredicts).\n");
    run.close();
    writeJournal(bench_options, journal.get());
    return 0;
}
