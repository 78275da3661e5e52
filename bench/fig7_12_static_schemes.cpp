/**
 * @file
 * Reproduces Figures 7-12 of the paper: MISP/KI for the five dynamic
 * predictors under the three static schemes (none / Static_95 /
 * Static_Acc), one block per program. Predictor size 8 KB.
 *
 * Runs as a parallel experiment matrix: each program's branch stream
 * is materialized once into a replay buffer and the 90 cells are
 * sharded across worker threads (--threads / $BPSIM_THREADS).
 * Per-cell timing lands in BENCH_runner.json.
 *
 * Paper shapes to verify:
 *  - bimodal gains ~nothing from Static_95 (it already captures
 *    biased branches and has little aliasing);
 *  - ghist consistently improves with Static_95 (bias removal
 *    complements correlation);
 *  - for m88ksim Static_95 beats Static_Acc; for go/gcc the reverse;
 *  - ijpeg shows little improvement under either scheme;
 *  - 2bcgskew has the best MISP/KI and the smallest improvements.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options = parseBenchOptions(
        argc, argv, "fig7_12_static_schemes", "BENCH_runner.json");
    const std::size_t size_bytes = 8192;
    const StaticScheme schemes[] = {StaticScheme::None,
                                    StaticScheme::Static95,
                                    StaticScheme::StaticAcc};

    const auto journal =
        makeJournal(options, "fig7_12_static_schemes");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind : allPredictorKinds()) {
            for (const auto scheme : schemes) {
                ExperimentConfig config =
                    baseConfig(kind, size_bytes, scheme);
                config.evalWarmupBranches = options.warmupBranches;
                runner.addCell(program, config);
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Figures 7-12: MISP/KI per predictor and static "
                "scheme (8 KB predictors)\n");

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        std::printf("\n[%s]\n", runner.program(p).name().c_str());
        std::printf("%-10s %10s %12s %12s %10s %10s\n", "predictor",
                    "none", "static_95", "static_acc", "impr95",
                    "imprAcc");
        for (const auto kind : allPredictorKinds()) {
            const CellResult &c_none = result.cells[cell++];
            const CellResult &c_s95 = result.cells[cell++];
            const CellResult &c_acc = result.cells[cell++];
            std::printf("%-10s %10s %12s %12s %10s %10s\n",
                        predictorKindName(kind).c_str(),
                        formatMispKi(c_none).c_str(),
                        formatMispKi(c_s95).c_str(),
                        formatMispKi(c_acc).c_str(),
                        formatImprovement(c_none, c_s95).c_str(),
                        formatImprovement(c_none, c_acc).c_str());
        }
    }

    std::printf("\n%zu cells, %u threads: %.2fs wall "
                "(materialize %.2fs), %.1fM branches/s, "
                "%.2fx vs one-thread estimate\n",
                result.cells.size(), result.threads,
                result.wallSeconds, result.materializeSeconds,
                static_cast<double>(result.totalBranches) / 1e6 /
                    result.wallSeconds,
                result.speedupVsSerialEstimate());
    std::printf("profile cache: %llu hits / %llu misses "
                "(%.1fM branches skipped); kernels in %llu/%zu "
                "cells, %.1fM simulated branches/s\n",
                static_cast<unsigned long long>(
                    result.profileCacheHits),
                static_cast<unsigned long long>(
                    result.profileCacheMisses),
                static_cast<double>(result.totalBranches -
                                    result.actualBranches) / 1e6,
                static_cast<unsigned long long>(result.kernelCells),
                result.cells.size(),
                result.kernelBranchesPerSecond() / 1e6);

    return finishBench(options, "fig7_12_static_schemes", runner, result,
                       journal.get());
}
