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
    const auto journal = makeJournal(options, "table4_ghist_shift");
    auto run = obs::Span::run(journal.get(), runBeginFields(options.threads));
    const std::size_t sizes_kb[] = {32, 64};

    std::printf("Table 4: 2bcgskew, %% MISP/KI improvement over the "
                "pure dynamic baseline\n\n");
    std::printf("%-10s %6s %10s %12s %10s %12s\n", "program", "size",
                "static95", "static95+sh", "staticAcc",
                "staticAcc+sh");

    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Ref);
        auto section = obs::Span::phase(
            journal.get(), program.name(), "bench." + program.name());
        for (const std::size_t kb : sizes_kb) {
            ExperimentConfig config =
                baseConfig(PredictorKind::TwoBcGskew, kb * 1024,
                           StaticScheme::None);
            config.counters = obs::countersOf(journal.get());
            const double none =
                runExperiment(program, config).stats.mispKi();

            double results[4];
            int i = 0;
            for (const auto scheme :
                 {StaticScheme::Static95, StaticScheme::StaticAcc}) {
                for (const auto shift :
                     {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome}) {
                    config.scheme = scheme;
                    config.shift = shift;
                    results[i++] = improvementPct(
                        none,
                        runExperiment(program, config).stats.mispKi());
                }
            }

            std::printf("%-10s %4zuKB %+9.1f%% %+11.1f%% %+9.1f%% "
                        "%+11.1f%%\n",
                        program.name().c_str(), kb, results[0],
                        results[1], results[2], results[3]);
        }
    }

    std::printf("\nPaper shape: where a plain scheme degrades "
                "(negative), its +shift column recovers.\n");
    run.close();
    writeJournal(options, journal.get());
    return 0;
}
