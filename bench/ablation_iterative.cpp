/**
 * @file
 * Ablation bench: the paper's single-iteration Static_Fac against the
 * full Lindsay-style iterative selection loop it was simplified from.
 * Later rounds profile the combined predictor with earlier rounds'
 * branches already removed, so they see the residual aliasing; the
 * question is how much that second look buys.
 *
 * The base and single-shot cells run through the experiment matrix;
 * the iterative loops (inherently sequential per program) run one per
 * program across the pool, replaying the same shared buffers. A
 * program's loop runs in the shard that runs its single-shot cell;
 * it is not a cell, so --resume runs it again.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/engine.hh"
#include "core/iterative.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

/** Per-program outcome of the iterative selection + evaluation. */
struct IterativeRow
{
    SimStats stats;
    std::size_t hints = 0;
    unsigned rounds = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "ablation_iterative");
    const std::size_t size_bytes = 4096;

    const auto journal = makeJournal(options, "ablation_iterative");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        ExperimentConfig base = baseConfig(
            PredictorKind::Gshare, size_bytes, StaticScheme::None);
        base.evalWarmupBranches = options.warmupBranches;
        runner.addCell(program, base);
        ExperimentConfig fac = baseConfig(
            PredictorKind::Gshare, size_bytes, StaticScheme::StaticFac);
        fac.evalWarmupBranches = options.warmupBranches;
        runner.addCell(program, fac);
        // The iterative rounds profile and evaluate over the same
        // buffer; make it long enough for both passes.
        runner.requireBuffer(program, InputSet::Ref,
                             std::max(profileBranches, evalBranches));
    }
    const MatrixResult result = runner.run();

    // The iterative pass runs after run() (so after run_end); it
    // feeds the journal's timers, which carry no event ordering,
    // rather than emitting phase events of its own.
    TimerRegistry *timers = obs::timersOf(journal.get());
    std::vector<IterativeRow> rows(runner.programCount());
    runner.pool().parallelFor(
        runner.programCount(), [&](std::size_t p) {
            if (result.cells[2 * p + 1].shardSkipped)
                return;
            ScopedTimer timer(timers, "bench.iterative");
            IterativeConfig iterative;
            iterative.kind = PredictorKind::Gshare;
            iterative.sizeBytes = size_bytes;
            iterative.profileBranches = profileBranches;

            ReplayBuffer::Cursor profile_stream =
                runner.buffer(p, InputSet::Ref).cursor();
            const IterativeResult selection =
                selectStaticIterative(profile_stream, iterative);

            CombinedPredictor combined(
                makePredictor(iterative.kind, size_bytes),
                selection.hints);
            ReplayBuffer::Cursor eval_stream =
                runner.buffer(p, InputSet::Ref).cursor();
            SimOptions sim_options;
            sim_options.maxBranches = evalBranches;
            rows[p].stats =
                simulate(combined, eval_stream, sim_options);
            rows[p].hints = selection.hints.size();
            rows[p].rounds = selection.iterations;
        });

    std::printf("Ablation: single-shot Static_Fac vs iterative "
                "(Lindsay) selection, gshare 4 KB\n\n");
    std::printf("%-10s %8s | %10s %7s | %10s %7s %6s\n", "program",
                "base", "fac x1", "hints", "iterative", "hints",
                "rounds");

    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        const CellResult &base = result.cells[2 * p];
        const CellResult &single = result.cells[2 * p + 1];
        // "-" where another shard ran the program's iterative pass.
        const auto iterative = [&](const char *format, auto value) {
            char buf[32] = "-";
            if (!single.shardSkipped)
                std::snprintf(buf, sizeof(buf), format, value);
            return std::string(buf);
        };
        std::printf("%-10s %8s | %10s %7s | %10s %7s %6s\n",
                    runner.program(p).name().c_str(),
                    formatMispKi(base).c_str(),
                    formatMispKi(single).c_str(),
                    formatEntry({single}, "%zu", single.result.hintCount)
                        .c_str(),
                    iterative("%.2f", rows[p].stats.mispKi()).c_str(),
                    iterative("%zu", rows[p].hints).c_str(),
                    iterative("%u", rows[p].rounds).c_str());
    }

    std::printf("\nExpected shape: iterating adds a modest second "
                "tranche of hints and matches or beats the single "
                "pass everywhere.\n");
    return finishBench(options, "ablation_iterative", runner, result,
                       journal.get());
}
