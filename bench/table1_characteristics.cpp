/**
 * @file
 * Reproduces Table 1 of the paper: static and dynamic characteristics
 * of the six (synthetic) SPECINT95 programs under both inputs.
 *
 * The static columns come from the synthesised program structure; the
 * dynamic columns from bounded simulation runs. Absolute dynamic
 * instruction counts are smaller than the paper's (billions on real
 * hardware vs millions here) by design; CBRs/KI and the static branch
 * counts are the calibrated quantities.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/engine.hh"
#include "predictor/bimodal.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "table1_characteristics");
    const auto journal = makeJournal(options, "table1_characteristics");
    auto run = obs::Span::run(journal.get(), runBeginFields(options.threads));

    std::printf("Table 1: program characteristics (synthetic stand-ins"
                ")\n\n");
    std::printf("%-10s %12s %12s | %14s %10s | %14s %10s\n", "program",
                "#insts(stat)", "#CBRs(stat)", "train #dyn-inst",
                "train CBR/KI", "ref #dyn-inst", "ref CBR/KI");

    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Train);
        auto section = obs::Span::phase(
            journal.get(), program.name(), "bench." + program.name());

        // A throwaway predictor: Table 1 only needs stream statistics.
        Bimodal counter_only(2048);

        SimOptions sim_options;
        sim_options.maxBranches = evalBranches;
        sim_options.counters = obs::countersOf(journal.get());
        SimStats train = simulate(counter_only, program, sim_options);

        program.setInput(InputSet::Ref);
        SimStats ref = simulate(counter_only, program, sim_options);

        std::printf("%-10s %12llu %12zu | %14llu %10.0f | %14llu "
                    "%10.0f\n",
                    program.name().c_str(),
                    static_cast<unsigned long long>(
                        program.staticInstructionEstimate()),
                    program.staticBranchCount(),
                    static_cast<unsigned long long>(train.instructions),
                    train.cbrsKi(),
                    static_cast<unsigned long long>(ref.instructions),
                    ref.cbrsKi());
    }

    std::printf("\nPaper shape: every 7th-8th instruction is a "
                "conditional branch (CBRs/KI 108-156), except ijpeg "
                "(~61); gcc has by far the most static branches.\n");
    run.close();
    writeJournal(options, journal.get());
    return 0;
}
