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

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "fig1_6_gshare_scaling");
    const auto journal = makeJournal(options, "fig1_6_gshare_scaling");
    auto run = obs::Span::run(journal.get(), runBeginFields(options.threads));
    const std::size_t sizes_kb[] = {1, 2, 4, 8, 16, 32, 64};

    std::printf("Figures 1-6: gshare size sweep, no-static vs "
                "Static_Acc (self-trained)\n");

    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Ref);
        auto section = obs::Span::phase(
            journal.get(), program.name(), "bench." + program.name());
        std::printf("\n[%s]\n", program.name().c_str());
        std::printf("%6s %12s %12s %8s %14s %14s\n", "size", "MISP/KI",
                    "MISP/KI+st", "improv", "collisions",
                    "collisions+st");

        for (const std::size_t kb : sizes_kb) {
            ExperimentConfig config = baseConfig(
                PredictorKind::Gshare, kb * 1024, StaticScheme::None);
            config.counters = obs::countersOf(journal.get());
            ExperimentResult base = runExperiment(program, config);

            config.scheme = StaticScheme::StaticAcc;
            ExperimentResult with = runExperiment(program, config);

            std::printf("%4zuKB %12.2f %12.2f %8s %14llu %14llu\n", kb,
                        base.stats.mispKi(), with.stats.mispKi(),
                        formatImprovement(base.stats.mispKi(),
                                          with.stats.mispKi())
                            .c_str(),
                        static_cast<unsigned long long>(
                            base.stats.collisions.collisions),
                        static_cast<unsigned long long>(
                            with.stats.collisions.collisions));
        }
    }
    run.close();
    writeJournal(options, journal.get());
    return 0;
}
