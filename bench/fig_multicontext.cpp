/**
 * @file
 * Multi-context scenarios over a shared predictor: the registry
 * family (gshare / 2bcgskew / bimode / agree / tage / perceptron)
 * under four static schemes while three programs (go, gcc, compress)
 * share the tables through each interleave kind — SMT round-robin,
 * OS context switching, and Zipfian server traffic.
 *
 * The question this bench answers for EXPERIMENTS.md: how much of a
 * shared predictor's aliasing is *cross-context* (one tenant evicting
 * another's state), which contexts suffer it, and how much of it
 * profile-directed static schemes claw back. Every scenario cell
 * reports per-context MISP/KI plus the NxN victim x aggressor
 * collision matrix (printed for the no-scheme column; all cells land
 * in BENCH_multicontext.json for the schema validator).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "scenario/scenario.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

const std::vector<std::string> predictors = {
    "gshare", "2bcgskew", "bimode", "agree", "tage", "perceptron"};

const StaticScheme schemes[] = {
    StaticScheme::None, StaticScheme::Static95,
    StaticScheme::StaticAcc, StaticScheme::StaticAlias};

constexpr std::size_t schemeCount =
    sizeof(schemes) / sizeof(schemes[0]);

const ScenarioKind kinds[] = {ScenarioKind::Smt,
                              ScenarioKind::ContextSwitch,
                              ScenarioKind::Server};

const SpecProgram memberIds[] = {SpecProgram::Go, SpecProgram::Gcc,
                                 SpecProgram::Compress};

constexpr std::size_t contextCount =
    sizeof(memberIds) / sizeof(memberIds[0]);

std::vector<SyntheticProgram>
makeMembers()
{
    std::vector<SyntheticProgram> members;
    for (const SpecProgram id : memberIds)
        members.push_back(makeSpecProgram(id, InputSet::Ref));
    return members;
}

/** Share of a cell's classified collisions that crossed contexts. */
double
crossShare(const std::vector<ContextAliasCell> &matrix,
           std::size_t contexts, bool destructive_only)
{
    Count cross = 0;
    Count total = 0;
    for (std::size_t v = 0; v < contexts; ++v) {
        for (std::size_t a = 0; a < contexts; ++a) {
            const ContextAliasCell &cell = matrix[v * contexts + a];
            const Count n = destructive_only ? cell.destructive
                                             : cell.collisions;
            total += n;
            if (v != a)
                cross += n;
        }
    }
    return total == 0
               ? 0.0
               : 100.0 * static_cast<double>(cross) /
                     static_cast<double>(total);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = parseBenchOptions(
        argc, argv, "fig_multicontext", "BENCH_multicontext.json");
    const std::size_t size_bytes = 8192;

    const auto journal = makeJournal(options, "fig_multicontext");
    ExperimentRunner runner(runnerOptions(options, journal.get()));
    for (const ScenarioKind kind : kinds) {
        ScenarioSpec spec;
        spec.kind = kind;
        const std::size_t workload = runner.addWorkload(
            std::make_unique<ScenarioWorkload>(spec, makeMembers()));
        for (const std::string &predictor : predictors) {
            for (const StaticScheme scheme : schemes) {
                ExperimentConfig config = baseConfig(
                    PredictorKind::Gshare, size_bytes, scheme);
                config.predictor = predictor;
                config.evalWarmupBranches = options.warmupBranches;
                config.scenarioContexts = contextCount;
                runner.addCell(workload, config);
            }
        }
    }
    const MatrixResult result = runner.run();

    std::printf("Multi-context scenarios: MISP/KI per predictor and "
                "static scheme (8 KB shared predictors, %zu "
                "contexts: go/gcc/compress)\n",
                contextCount);

    std::size_t cell = 0;
    for (std::size_t s = 0; s < runner.programCount(); ++s) {
        std::printf("\n[%s]\n", runner.program(s).name().c_str());
        std::printf("%-10s %8s %11s %11s %13s %7s %7s\n", "predictor",
                    "none", "static_95", "static_acc", "static_alias",
                    "xcoll%", "xdest%");
        const std::size_t block = cell;
        for (std::size_t k = 0; k < predictors.size(); ++k) {
            const CellResult *columns[schemeCount];
            for (std::size_t c = 0; c < schemeCount; ++c)
                columns[c] = &result.cells[cell++];
            // Cross-context shares read off the no-scheme column:
            // that is the raw interference the schemes then attack.
            std::string xcoll = "-";
            std::string xdest = "-";
            const CellResult &base = *columns[0];
            if (hasResult(base) &&
                base.result.aliasMatrix.size() ==
                    contextCount * contextCount) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.1f",
                              crossShare(base.result.aliasMatrix,
                                         contextCount, false));
                xcoll = buf;
                std::snprintf(buf, sizeof(buf), "%.1f",
                              crossShare(base.result.aliasMatrix,
                                         contextCount, true));
                xdest = buf;
            }
            std::printf("%-10s %8s %11s %11s %13s %7s %7s\n",
                        predictors[k].c_str(),
                        formatMispKi(*columns[0]).c_str(),
                        formatMispKi(*columns[1]).c_str(),
                        formatMispKi(*columns[2]).c_str(),
                        formatMispKi(*columns[3]).c_str(), xcoll.c_str(),
                        xdest.c_str());
        }

        // Per-context attribution and the destructive-collision
        // matrix for the scenario's gshare/none cell: gshare has no
        // anti-aliasing machinery, so it shows the interleave's raw
        // interference pattern most clearly.
        const CellResult &sample = result.cells[block];
        if (hasResult(sample) &&
            sample.result.contextStats.size() == contextCount) {
            std::printf("  gshare/none per context:");
            for (std::size_t c = 0; c < contextCount; ++c) {
                const ContextStats &ctx =
                    sample.result.contextStats[c];
                std::printf("  ctx%zu(%s) MISP/KI=%.2f", c,
                            specProgramName(memberIds[c]).c_str(),
                            ctx.mispKi());
            }
            std::printf("\n");
            if (sample.result.aliasMatrix.size() ==
                contextCount * contextCount) {
                std::printf("  destructive collisions "
                            "(row=victim, col=aggressor):\n");
                for (std::size_t v = 0; v < contextCount; ++v) {
                    std::printf("    ctx%zu:", v);
                    for (std::size_t a = 0; a < contextCount; ++a) {
                        std::printf(
                            " %10llu",
                            static_cast<unsigned long long>(
                                sample.result
                                    .aliasMatrix[v * contextCount + a]
                                    .destructive));
                    }
                    std::printf("\n");
                }
            }
        }
    }

    std::printf("\n%zu cells, %u threads: %.2fs wall "
                "(materialize %.2fs), %.1fM branches/s\n",
                result.cells.size(), result.threads,
                result.wallSeconds, result.materializeSeconds,
                static_cast<double>(result.totalBranches) / 1e6 /
                    result.wallSeconds);

    return finishBench(options, "fig_multicontext", runner, result,
                       journal.get());
}
