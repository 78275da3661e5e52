/**
 * @file
 * Static-scheme matrix over the full registered predictor family:
 * the paper's five kinds plus the tagged-geometric extensions (tage,
 * hashed perceptron) under none / Static_95 / Static_Acc /
 * Static_Fac, one block per program, 8 KB predictors.
 *
 * The question this bench answers for EXPERIMENTS.md: do
 * profile-directed static hints still pay off against predictors
 * whose own tagging/thresholding machinery already suppresses
 * destructive aliasing? The aggregate section reports the
 * constructive / destructive / neutral collision split per
 * predictor x scheme so the answer can be read off directly.
 *
 * Cells flow through the registry (ExperimentConfig::predictor), so
 * a newly registered predictor joins this matrix without edits here
 * beyond the name list.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

const std::vector<std::string> predictors = {
    "bimodal", "ghist", "gshare", "bimode",
    "2bcgskew", "tage",  "perceptron"};

const StaticScheme schemes[] = {
    StaticScheme::None, StaticScheme::Static95,
    StaticScheme::StaticAcc, StaticScheme::StaticFac};

constexpr std::size_t schemeCount =
    sizeof(schemes) / sizeof(schemes[0]);

/** Branch-weighted aggregate over programs for one cell column. */
struct Aggregate
{
    Count mispredictions = 0;
    Count instructions = 0;
    Count collisions = 0;
    Count constructive = 0;
    Count destructive = 0;

    void
    add(const SimStats &stats)
    {
        mispredictions += stats.mispredictions;
        instructions += stats.instructions;
        collisions += stats.collisions.collisions;
        constructive += stats.collisions.constructive;
        destructive += stats.collisions.destructive;
    }

    double
    mispKi() const
    {
        return instructions == 0 ? 0.0
                                 : 1000.0 *
                                       static_cast<double>(
                                           mispredictions) /
                                       static_cast<double>(
                                           instructions);
    }

    Count
    neutral() const
    {
        return collisions - constructive - destructive;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = parseBenchOptions(
        argc, argv, "fig_tagged_schemes", "BENCH_runner.json");
    const std::size_t size_bytes = 8192;

    const auto journal = makeJournal(options, "fig_tagged_schemes");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const std::string &predictor : predictors) {
            for (const auto scheme : schemes) {
                ExperimentConfig config = baseConfig(
                    PredictorKind::Gshare, size_bytes, scheme);
                config.predictor = predictor;
                config.evalWarmupBranches = options.warmupBranches;
                runner.addCell(program, config);
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Tagged family x static schemes: MISP/KI "
                "(8 KB predictors)\n");

    // predictor x scheme aggregates, branch-weighted over programs.
    std::vector<std::vector<Aggregate>> aggregate(
        predictors.size(), std::vector<Aggregate>(schemeCount));

    std::size_t cell = 0;
    for (std::size_t p = 0; p < runner.programCount(); ++p) {
        std::printf("\n[%s]\n", runner.program(p).name().c_str());
        std::printf("%-10s %10s %12s %12s %12s %10s %10s %10s\n",
                    "predictor", "none", "static_95", "static_acc",
                    "static_fac", "impr95", "imprAcc", "imprFac");
        for (std::size_t k = 0; k < predictors.size(); ++k) {
            const CellResult *row[schemeCount];
            for (std::size_t s = 0; s < schemeCount; ++s) {
                row[s] = &result.cells[cell++];
                if (hasResult(*row[s]))
                    aggregate[k][s].add(row[s]->result.stats);
            }
            std::printf(
                "%-10s %10s %12s %12s %12s %10s %10s %10s\n",
                predictors[k].c_str(), formatMispKi(*row[0]).c_str(),
                formatMispKi(*row[1]).c_str(),
                formatMispKi(*row[2]).c_str(),
                formatMispKi(*row[3]).c_str(),
                formatImprovement(*row[0], *row[1]).c_str(),
                formatImprovement(*row[0], *row[2]).c_str(),
                formatImprovement(*row[0], *row[3]).c_str());
        }
    }

    std::printf("\nAggregate collision split over all programs "
                "(constructive / destructive / neutral, %% of "
                "collisions)\n");
    std::printf("%-10s %-10s %10s %9s %9s %9s\n", "predictor",
                "scheme", "misp/KI", "constr", "destr", "neutral");
    for (std::size_t k = 0; k < predictors.size(); ++k) {
        for (std::size_t s = 0; s < schemeCount; ++s) {
            const Aggregate &agg = aggregate[k][s];
            const double denom = agg.collisions == 0
                                     ? 1.0
                                     : static_cast<double>(
                                           agg.collisions);
            std::printf(
                "%-10s %-10s %10.2f %8.1f%% %8.1f%% %8.1f%%\n",
                predictors[k].c_str(),
                staticSchemeName(schemes[s]).c_str(), agg.mispKi(),
                100.0 * static_cast<double>(agg.constructive) /
                    denom,
                100.0 * static_cast<double>(agg.destructive) /
                    denom,
                100.0 * static_cast<double>(agg.neutral()) / denom);
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
    std::printf("profile cache: %llu hits / %llu misses; kernels in "
                "%llu/%zu cells\n",
                static_cast<unsigned long long>(
                    result.profileCacheHits),
                static_cast<unsigned long long>(
                    result.profileCacheMisses),
                static_cast<unsigned long long>(result.kernelCells),
                result.cells.size());

    return finishBench(options, "fig_tagged_schemes", runner, result,
                       journal.get());
}
