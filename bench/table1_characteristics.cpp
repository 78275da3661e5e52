/**
 * @file
 * Reproduces Table 1 of the paper: static and dynamic characteristics
 * of the six (synthetic) SPECINT95 programs under both inputs.
 *
 * The static columns come from the synthesised program structure; the
 * dynamic columns from one runner cell per program and input, whose
 * measured window's statistics carry the instruction and branch
 * counts. Absolute dynamic instruction counts are smaller than the
 * paper's (billions on real hardware vs millions here) by design;
 * CBRs/KI and the static branch counts are the calibrated quantities.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

/** A program's static columns. */
struct StaticRow
{
    std::string name;
    Count instructions = 0;
    std::size_t branches = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "table1_characteristics");

    const auto journal = makeJournal(options, "table1_characteristics");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    std::vector<StaticRow> rows;
    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Train);
        rows.push_back({program.name(),
                        program.staticInstructionEstimate(),
                        program.staticBranchCount()});
        const std::size_t index = runner.addProgram(std::move(program));
        // A throwaway predictor: Table 1 only needs the stream
        // statistics every cell's measured window carries.
        for (const auto input : {InputSet::Train, InputSet::Ref}) {
            ExperimentConfig config = baseConfig(
                PredictorKind::Bimodal, 2048, StaticScheme::None);
            config.evalInput = input;
            config.evalWarmupBranches = options.warmupBranches;
            runner.addCell(index, config);
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Table 1: program characteristics (synthetic stand-ins"
                ")\n\n");
    std::printf("%-10s %12s %12s | %14s %10s | %14s %10s\n", "program",
                "#insts(stat)", "#CBRs(stat)", "train #dyn-inst",
                "train CBR/KI", "ref #dyn-inst", "ref CBR/KI");
    const auto instructions = [](const CellResult &cell) {
        return formatEntry({cell}, "%llu",
                           static_cast<unsigned long long>(
                               cell.result.stats.instructions));
    };
    const auto cbrs_ki = [](const CellResult &cell) {
        return formatEntry({cell}, "%.0f", cell.result.stats.cbrsKi());
    };
    for (std::size_t p = 0; p < rows.size(); ++p) {
        const CellResult &train = result.cells[2 * p];
        const CellResult &ref = result.cells[2 * p + 1];
        std::printf("%-10s %12llu %12zu | %14s %10s | %14s %10s\n",
                    rows[p].name.c_str(),
                    static_cast<unsigned long long>(rows[p].instructions),
                    rows[p].branches, instructions(train).c_str(),
                    cbrs_ki(train).c_str(), instructions(ref).c_str(),
                    cbrs_ki(ref).c_str());
    }

    std::printf("\nPaper shape: every 7th-8th instruction is a "
                "conditional branch (CBRs/KI 108-156), except ijpeg "
                "(~61); gcc has by far the most static branches.\n");
    return finishBench(options, "table1_characteristics", runner, result,
                       journal.get());
}
