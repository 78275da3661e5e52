/**
 * @file
 * Golden-value regression suite: fixed-seed experiment statistics for
 * every predictor kind x static scheme pinned against checked-in JSON
 * files under tests/golden/. Any change to predictor update rules,
 * selection logic, stream generation, or the devirtualized kernels
 * that alters results shows up here as an exact-value diff. Each
 * golden pins two paths: ExperimentRunner::run(), the path every
 * default run takes, and runExperimentStreams(), the virtual-loop
 * oracle.
 *
 * The workload is a fully explicit ProgramConfig (never a SPEC
 * preset), so future workload-tuning PRs that adjust the presets do
 * not spuriously invalidate the goldens; only engine-behaviour
 * changes can.
 *
 * Regenerating after an intentional behaviour change:
 *
 *     BPSIM_WRITE_GOLDEN=1 ./build/tests/bpsim_tests \
 *         --gtest_filter='*GoldenTest*'
 *
 * then review the diff under tests/golden/ like any other code
 * change.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "predictor/factory.hh"
#include "predictor/registry.hh"
#include "scenario/scenario.hh"
#include "staticsel/selection.hh"
#include "support/atomic_file.hh"
#include "support/json.hh"
#include "trace/replay_buffer.hh"
#include "workload/synthetic_program.hh"

#ifndef BPSIM_GOLDEN_DIR
#error "BPSIM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace bpsim
{
namespace
{

constexpr Count goldenProfileBranches = 60'000;
constexpr Count goldenEvalBranches = 120'000;
constexpr std::size_t goldenSizeBytes = 2048;

const std::vector<StaticScheme> goldenSchemes = {
    StaticScheme::None,
    StaticScheme::Static95,
    StaticScheme::StaticAcc,
    StaticScheme::StaticFac,
};

/**
 * The pinned workload. Every knob is written out even where it
 * matches today's ProgramConfig default: the goldens must survive a
 * future PR retuning the defaults, so nothing here may depend on
 * them.
 */
ProgramConfig
goldenProgramConfig()
{
    ProgramConfig cfg;
    cfg.name = "golden";
    cfg.staticBranches = 900;
    cfg.avgGap = 8.0;
    cfg.zipfExponent = 1.0;
    cfg.meanRegionSites = 10;
    cfg.fracHighBias = 0.45;
    cfg.fracLowBias = 0.10;
    cfg.fracCorrelated = 0.15;
    cfg.fracPattern = 0.05;
    cfg.fracPhase = 0.03;
    cfg.medBiasLo = 0.75;
    cfg.medBiasHi = 0.95;
    cfg.highBiasHardFrac = 0.5;
    cfg.takenMajorityFrac = 0.35;
    cfg.fixedTripFrac = 0.5;
    cfg.meanScheduleLen = 6;
    cfg.meanScheduleRepeats = 64;
    cfg.loopDensity = 0.12;
    cfg.meanTripCount = 12;
    cfg.nestProbability = 0.25;
    cfg.emptyLoopFrac = 0.2;
    cfg.trainCoverage = 0.97;
    cfg.flipFraction = 0.02;
    cfg.driftFraction = 0.15;
    cfg.hotFlips = false;
    cfg.seed = 0x601d; // "gold"; arbitrary but pinned forever
    return cfg;
}

ExperimentConfig
goldenExperimentConfig(PredictorKind kind, StaticScheme scheme)
{
    ExperimentConfig config;
    config.kind = kind;
    config.sizeBytes = goldenSizeBytes;
    config.scheme = scheme;
    config.profileBranches = goldenProfileBranches;
    config.evalBranches = goldenEvalBranches;
    return config;
}

/** The pinned quantities, one per (kind, scheme) cell. */
struct GoldenStats
{
    Count branches = 0;
    Count instructions = 0;
    Count mispredictions = 0;
    Count staticPredicted = 0;
    Count staticMispredictions = 0;
    Count lookups = 0;
    Count collisions = 0;
    Count constructive = 0;
    Count destructive = 0;
    std::size_t hints = 0;
    Count simulatedBranches = 0;
    double mispKi = 0.0;
};

GoldenStats
fromResult(const ExperimentResult &result)
{
    GoldenStats g;
    g.branches = result.stats.branches;
    g.instructions = result.stats.instructions;
    g.mispredictions = result.stats.mispredictions;
    g.staticPredicted = result.stats.staticPredicted;
    g.staticMispredictions = result.stats.staticMispredictions;
    g.lookups = result.stats.collisions.lookups;
    g.collisions = result.stats.collisions.collisions;
    g.constructive = result.stats.collisions.constructive;
    g.destructive = result.stats.collisions.destructive;
    g.hints = result.hintCount;
    g.simulatedBranches = result.simulatedBranches;
    g.mispKi = result.stats.mispKi();
    return g;
}

Count
jsonCount(const JsonValue &cell, const std::string &key)
{
    return static_cast<Count>(cell.at(key).asNumber());
}

GoldenStats
fromJson(const JsonValue &cell)
{
    GoldenStats g;
    g.branches = jsonCount(cell, "branches");
    g.instructions = jsonCount(cell, "instructions");
    g.mispredictions = jsonCount(cell, "mispredictions");
    g.staticPredicted = jsonCount(cell, "static_predicted");
    g.staticMispredictions = jsonCount(cell, "static_mispredictions");
    g.lookups = jsonCount(cell, "lookups");
    g.collisions = jsonCount(cell, "collisions");
    g.constructive = jsonCount(cell, "constructive");
    g.destructive = jsonCount(cell, "destructive");
    g.hints = static_cast<std::size_t>(cell.at("hints").asNumber());
    g.simulatedBranches = jsonCount(cell, "simulated_branches");
    g.mispKi = cell.at("misp_ki").asNumber();
    return g;
}

/** Exact comparison; @p path names the run path under test. */
void
expectMatchesGolden(const GoldenStats &golden, const GoldenStats &got,
                    const std::string &path)
{
    SCOPED_TRACE(path);
    EXPECT_EQ(golden.branches, got.branches);
    EXPECT_EQ(golden.instructions, got.instructions);
    EXPECT_EQ(golden.mispredictions, got.mispredictions);
    EXPECT_EQ(golden.staticPredicted, got.staticPredicted);
    EXPECT_EQ(golden.staticMispredictions,
              got.staticMispredictions);
    EXPECT_EQ(golden.lookups, got.lookups);
    EXPECT_EQ(golden.collisions, got.collisions);
    EXPECT_EQ(golden.constructive, got.constructive);
    EXPECT_EQ(golden.destructive, got.destructive);
    EXPECT_EQ(golden.hints, got.hints);
    EXPECT_EQ(golden.simulatedBranches, got.simulatedBranches);
    // %.17g round-trips doubles exactly, so this too is exact.
    EXPECT_DOUBLE_EQ(golden.mispKi, got.mispKi);
}

std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(BPSIM_GOLDEN_DIR) + "/" + name + ".json";
}

void
writeGoldenFile(const std::string &name,
                const std::vector<GoldenStats> &cells)
{
    const std::string path = goldenPath(name);
    // Rendered into memory and written atomically (temp + rename), so
    // an interrupted regeneration can never leave a truncated golden
    // behind for the next test run to diff against.
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"bpsim-golden-v1\",\n";
    out << "  \"predictor\": \"" << name << "\",\n";
    out << "  \"size_bytes\": " << goldenSizeBytes << ",\n";
    out << "  \"profile_branches\": " << goldenProfileBranches
        << ",\n";
    out << "  \"eval_branches\": " << goldenEvalBranches << ",\n";
    out << "  \"cells\": {\n";
    for (std::size_t i = 0; i < goldenSchemes.size(); ++i) {
        const GoldenStats &g = cells[i];
        out << "    \"" << staticSchemeName(goldenSchemes[i])
            << "\": {\n";
        out << "      \"branches\": " << g.branches << ",\n";
        out << "      \"instructions\": " << g.instructions
            << ",\n";
        out << "      \"mispredictions\": " << g.mispredictions
            << ",\n";
        out << "      \"misp_ki\": " << formatDouble(g.mispKi)
            << ",\n";
        out << "      \"static_predicted\": " << g.staticPredicted
            << ",\n";
        out << "      \"static_mispredictions\": "
            << g.staticMispredictions << ",\n";
        out << "      \"hints\": " << g.hints << ",\n";
        out << "      \"simulated_branches\": "
            << g.simulatedBranches << ",\n";
        out << "      \"lookups\": " << g.lookups << ",\n";
        out << "      \"collisions\": " << g.collisions << ",\n";
        out << "      \"constructive\": " << g.constructive
            << ",\n";
        out << "      \"destructive\": " << g.destructive << "\n";
        out << "    }" << (i + 1 < goldenSchemes.size() ? "," : "")
            << "\n";
    }
    out << "  }\n";
    out << "}\n";
    const Result<void> written = writeFileAtomic(path, out.str());
    ASSERT_TRUE(written.ok())
        << "write failed for " << path << ": "
        << (written.ok() ? "" : written.error().describe());
}

/**
 * Run every scheme through BOTH paths — ExperimentRunner::run() (the
 * devirtualized kernels for kernel-capable predictors, the virtual
 * loop otherwise) and runExperimentStreams() over a cursor, the
 * oracle — and compare each against the same checked-in values under
 * tests/golden/@p name.json. Pinning both paths to one golden also
 * pins them to each other. @p configure adapts the base config per
 * predictor; @p expect_kernel asserts run() actually took the
 * devirtualized path.
 */
void
runGolden(const std::string &name,
          const std::function<void(ExperimentConfig &)> &configure,
          bool expect_kernel)
{
    SyntheticProgram source =
        buildProgram(goldenProgramConfig(), InputSet::Ref);
    const ReplayBuffer buffer = ReplayBuffer::materialize(
        source, std::max(goldenProfileBranches, goldenEvalBranches));
    ASSERT_EQ(buffer.size(),
              std::max(goldenProfileBranches, goldenEvalBranches));

    RunnerOptions options;
    options.threads = 1;
    ExperimentRunner runner(options);
    const std::size_t program = runner.addProgram(
        buildProgram(goldenProgramConfig(), InputSet::Ref));
    std::vector<ExperimentConfig> configs;
    for (const StaticScheme scheme : goldenSchemes) {
        ExperimentConfig config = goldenExperimentConfig(
            PredictorKind::Gshare, scheme);
        configure(config);
        runner.addCell(program, config);
        configs.push_back(config);
    }
    const MatrixResult run = runner.run();

    std::vector<GoldenStats> run_stats;
    std::vector<GoldenStats> virtual_stats;
    for (std::size_t i = 0; i < goldenSchemes.size(); ++i) {
        const std::string cell_name =
            name + "/" + staticSchemeName(goldenSchemes[i]);
        ASSERT_TRUE(run.cells[i].ok()) << cell_name;
        if (expect_kernel) {
            EXPECT_TRUE(run.cells[i].usedKernel)
                << cell_name << " fell off the devirtualized path";
        }
        run_stats.push_back(fromResult(run.cells[i].result));

        ReplayBuffer::Cursor profile_stream = buffer.cursor();
        ReplayBuffer::Cursor eval_stream = buffer.cursor();
        const ExperimentResult streamed = runExperimentStreams(
            profile_stream, eval_stream, configs[i]);
        virtual_stats.push_back(fromResult(streamed));
    }

    if (std::getenv("BPSIM_WRITE_GOLDEN") != nullptr) {
        writeGoldenFile(name, run_stats);
        // Even while regenerating, the two paths must agree.
        for (std::size_t i = 0; i < goldenSchemes.size(); ++i)
            expectMatchesGolden(
                run_stats[i], virtual_stats[i],
                staticSchemeName(goldenSchemes[i]) + " (paths)");
        return;
    }

    const std::string path = goldenPath(name);
    ASSERT_TRUE(std::ifstream(path).good())
        << path << " missing; regenerate with BPSIM_WRITE_GOLDEN=1";
    const JsonValue golden = JsonValue::parseFile(path);
    EXPECT_EQ(golden.at("schema").asString(), "bpsim-golden-v1");
    EXPECT_EQ(golden.at("predictor").asString(), name);
    EXPECT_EQ(jsonCount(golden, "size_bytes"), goldenSizeBytes);
    EXPECT_EQ(jsonCount(golden, "profile_branches"),
              goldenProfileBranches);
    EXPECT_EQ(jsonCount(golden, "eval_branches"),
              goldenEvalBranches);

    const JsonValue &cells = golden.at("cells");
    for (std::size_t i = 0; i < goldenSchemes.size(); ++i) {
        const std::string scheme = staticSchemeName(goldenSchemes[i]);
        const JsonValue *cell = cells.find(scheme);
        ASSERT_NE(cell, nullptr)
            << "no golden cell for " << scheme << " in " << path;
        const GoldenStats expected = fromJson(*cell);
        expectMatchesGolden(expected, run_stats[i],
                            scheme + " (run() path)");
        expectMatchesGolden(expected, virtual_stats[i],
                            scheme + " (virtual path)");
    }
}

/**
 * One parameterized test per registered predictor: registering a new
 * predictor is all it takes to appear here — there is no hand-kept
 * enumeration to forget to extend. Kernel-capable entries must take
 * the devirtualized replay path; the rest pin the virtual fallback
 * against the same golden file.
 */
class GoldenTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTest, PinsKernelAndVirtualPaths)
{
    const PredictorInfo *info =
        PredictorRegistry::instance().find(GetParam());
    ASSERT_NE(info, nullptr);
    runGolden(
        info->goldenFile,
        [info](ExperimentConfig &config) {
            config.predictor = info->name;
        },
        /*expect_kernel=*/info->kernelCapable);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GoldenTest,
    ::testing::ValuesIn(PredictorRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        // gtest parameter names must be alphanumeric/underscore.
        std::string name = info.param;
        for (char &c : name)
            if (std::isalnum(static_cast<unsigned char>(c)) == 0)
                c = '_';
        return name;
    });

/*
 * Scenario goldens: for every registered predictor, one SMT and one
 * context-switch interleave of two pinned member programs sharing the
 * predictor, with the per-context attribution and the victim x
 * aggressor alias matrix pinned alongside the shared totals. Any
 * change to the interleave schedule, the context PC encoding, or the
 * attribution arithmetic shows up here as an exact-value diff.
 *
 * Regeneration works exactly like the plain goldens
 * (BPSIM_WRITE_GOLDEN=1); files land as tests/golden/scenario_*.json.
 */

constexpr std::size_t scenarioGoldenContexts = 2;
constexpr Count scenarioGoldenQuantum = 5'000;

const std::vector<ScenarioKind> scenarioGoldenKinds = {
    ScenarioKind::Smt,
    ScenarioKind::ContextSwitch,
};

const std::vector<StaticScheme> scenarioGoldenSchemes = {
    StaticScheme::None,
    StaticScheme::Static95,
};

/**
 * The two pinned tenants. Member 0 is the plain golden workload;
 * member 1 reshapes it (and reseeds) so the interleave genuinely
 * mixes two different branch populations rather than two clones.
 */
ProgramConfig
scenarioMemberConfig(std::size_t context)
{
    ProgramConfig cfg = goldenProgramConfig();
    if (context == 1) {
        cfg.name = "golden_b";
        cfg.seed = 0xb01d; // "bold"; arbitrary but pinned forever
        cfg.fracHighBias = 0.30;
        cfg.loopDensity = 0.20;
        cfg.meanTripCount = 20;
    }
    return cfg;
}

ScenarioSpec
scenarioGoldenSpec(ScenarioKind kind)
{
    ScenarioSpec spec;
    spec.kind = kind;
    spec.quantum = scenarioGoldenQuantum;
    return spec;
}

/** Scenario cell key inside the golden file ("smt/none", ...). */
std::string
scenarioCellKey(ScenarioKind kind, StaticScheme scheme)
{
    return scenarioKindName(kind) + "/" + staticSchemeName(scheme);
}

struct ScenarioGoldenCell
{
    GoldenStats totals;
    std::vector<ContextStats> contexts;
    std::vector<ContextAliasCell> matrix;
};

ScenarioGoldenCell
scenarioCellFromResult(const ExperimentResult &result)
{
    ScenarioGoldenCell cell;
    cell.totals = fromResult(result);
    cell.contexts = result.contextStats;
    cell.matrix = result.aliasMatrix;
    return cell;
}

ScenarioGoldenCell
scenarioCellFromJson(const JsonValue &cell)
{
    ScenarioGoldenCell g;
    g.totals = fromJson(cell);
    for (const JsonValue &ctx : cell.at("contexts").items()) {
        ContextStats stats;
        stats.branches = jsonCount(ctx, "branches");
        stats.instructions = jsonCount(ctx, "instructions");
        stats.mispredictions = jsonCount(ctx, "mispredictions");
        stats.staticPredicted = jsonCount(ctx, "static_predicted");
        stats.collisions = jsonCount(ctx, "collisions");
        g.contexts.push_back(stats);
    }
    for (const JsonValue &entry : cell.at("alias_matrix").items()) {
        const std::vector<JsonValue> &triple = entry.items();
        ContextAliasCell alias;
        alias.collisions = static_cast<Count>(triple[0].asNumber());
        alias.constructive = static_cast<Count>(triple[1].asNumber());
        alias.destructive = static_cast<Count>(triple[2].asNumber());
        g.matrix.push_back(alias);
    }
    return g;
}

void
expectMatchesScenarioGolden(const ScenarioGoldenCell &golden,
                            const ScenarioGoldenCell &got,
                            const std::string &path)
{
    expectMatchesGolden(golden.totals, got.totals, path);
    SCOPED_TRACE(path);
    ASSERT_EQ(golden.contexts.size(), got.contexts.size());
    for (std::size_t c = 0; c < golden.contexts.size(); ++c) {
        EXPECT_EQ(golden.contexts[c].branches,
                  got.contexts[c].branches)
            << "context " << c;
        EXPECT_EQ(golden.contexts[c].instructions,
                  got.contexts[c].instructions)
            << "context " << c;
        EXPECT_EQ(golden.contexts[c].mispredictions,
                  got.contexts[c].mispredictions)
            << "context " << c;
        EXPECT_EQ(golden.contexts[c].staticPredicted,
                  got.contexts[c].staticPredicted)
            << "context " << c;
        EXPECT_EQ(golden.contexts[c].collisions,
                  got.contexts[c].collisions)
            << "context " << c;
    }
    ASSERT_EQ(golden.matrix.size(), got.matrix.size());
    for (std::size_t i = 0; i < golden.matrix.size(); ++i) {
        EXPECT_EQ(golden.matrix[i].collisions, got.matrix[i].collisions)
            << "matrix cell " << i;
        EXPECT_EQ(golden.matrix[i].constructive,
                  got.matrix[i].constructive)
            << "matrix cell " << i;
        EXPECT_EQ(golden.matrix[i].destructive,
                  got.matrix[i].destructive)
            << "matrix cell " << i;
    }
}

void
writeScenarioGoldenFile(const std::string &name,
                        const std::vector<ScenarioGoldenCell> &cells)
{
    const std::string path = goldenPath(name);
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"bpsim-golden-v1\",\n";
    out << "  \"predictor\": \"" << name << "\",\n";
    out << "  \"size_bytes\": " << goldenSizeBytes << ",\n";
    out << "  \"profile_branches\": " << goldenProfileBranches
        << ",\n";
    out << "  \"eval_branches\": " << goldenEvalBranches << ",\n";
    out << "  \"cells\": {\n";
    std::size_t index = 0;
    for (const ScenarioKind kind : scenarioGoldenKinds) {
        for (const StaticScheme scheme : scenarioGoldenSchemes) {
            const ScenarioGoldenCell &g = cells[index++];
            out << "    \"" << scenarioCellKey(kind, scheme)
                << "\": {\n";
            out << "      \"branches\": " << g.totals.branches
                << ",\n";
            out << "      \"instructions\": " << g.totals.instructions
                << ",\n";
            out << "      \"mispredictions\": "
                << g.totals.mispredictions << ",\n";
            out << "      \"misp_ki\": "
                << formatDouble(g.totals.mispKi) << ",\n";
            out << "      \"static_predicted\": "
                << g.totals.staticPredicted << ",\n";
            out << "      \"static_mispredictions\": "
                << g.totals.staticMispredictions << ",\n";
            out << "      \"hints\": " << g.totals.hints << ",\n";
            out << "      \"simulated_branches\": "
                << g.totals.simulatedBranches << ",\n";
            out << "      \"lookups\": " << g.totals.lookups << ",\n";
            out << "      \"collisions\": " << g.totals.collisions
                << ",\n";
            out << "      \"constructive\": " << g.totals.constructive
                << ",\n";
            out << "      \"destructive\": " << g.totals.destructive
                << ",\n";
            out << "      \"contexts\": [\n";
            for (std::size_t c = 0; c < g.contexts.size(); ++c) {
                const ContextStats &ctx = g.contexts[c];
                out << "        {\"branches\": " << ctx.branches
                    << ", \"instructions\": " << ctx.instructions
                    << ", \"mispredictions\": " << ctx.mispredictions
                    << ", \"static_predicted\": "
                    << ctx.staticPredicted
                    << ", \"collisions\": " << ctx.collisions << "}"
                    << (c + 1 < g.contexts.size() ? "," : "") << "\n";
            }
            out << "      ],\n";
            out << "      \"alias_matrix\": [\n";
            for (std::size_t i = 0; i < g.matrix.size(); ++i) {
                out << "        [" << g.matrix[i].collisions << ", "
                    << g.matrix[i].constructive << ", "
                    << g.matrix[i].destructive << "]"
                    << (i + 1 < g.matrix.size() ? "," : "") << "\n";
            }
            out << "      ]\n";
            const bool last = index == cells.size();
            out << "    }" << (last ? "" : ",") << "\n";
        }
    }
    out << "  }\n";
    out << "}\n";
    const Result<void> written = writeFileAtomic(path, out.str());
    ASSERT_TRUE(written.ok())
        << "write failed for " << path << ": "
        << (written.ok() ? "" : written.error().describe());
}

/**
 * One scenario golden per registered predictor, mirroring GoldenTest.
 * ExperimentRunner::run() carries the attribution payload; the
 * virtual stream path computes no attribution but must agree with it
 * on every shared total, which pins the two paths to each other over
 * the interleaved stream too.
 */
class ScenarioGoldenTest : public ::testing::TestWithParam<std::string>
{
};

std::unique_ptr<ScenarioWorkload>
scenarioGoldenWorkload(ScenarioKind kind)
{
    std::vector<SyntheticProgram> members;
    for (std::size_t c = 0; c < scenarioGoldenContexts; ++c)
        members.push_back(
            buildProgram(scenarioMemberConfig(c), InputSet::Ref));
    return std::make_unique<ScenarioWorkload>(scenarioGoldenSpec(kind),
                                              std::move(members));
}

TEST_P(ScenarioGoldenTest, PinsAttributionAndTotals)
{
    const PredictorInfo *info =
        PredictorRegistry::instance().find(GetParam());
    ASSERT_NE(info, nullptr);
    const std::string name = "scenario_" + info->goldenFile;

    std::vector<ScenarioGoldenCell> cells;
    std::vector<GoldenStats> stream_totals;
    for (const ScenarioKind kind : scenarioGoldenKinds) {
        const ReplayBuffer buffer = ReplayBuffer::materialize(
            *scenarioGoldenWorkload(kind),
            std::max(goldenProfileBranches, goldenEvalBranches));

        RunnerOptions options;
        options.threads = 1;
        ExperimentRunner runner(options);
        const std::size_t workload =
            runner.addWorkload(scenarioGoldenWorkload(kind));
        std::vector<ExperimentConfig> configs;
        for (const StaticScheme scheme : scenarioGoldenSchemes) {
            ExperimentConfig config = goldenExperimentConfig(
                PredictorKind::Gshare, scheme);
            config.predictor = info->name;
            config.scenarioContexts = scenarioGoldenContexts;
            runner.addCell(workload, config);
            configs.push_back(config);
        }
        const MatrixResult run = runner.run();

        for (std::size_t i = 0; i < configs.size(); ++i) {
            ASSERT_TRUE(run.cells[i].ok()) << runner.cell(i).label;
            cells.push_back(scenarioCellFromResult(run.cells[i].result));

            ReplayBuffer::Cursor profile_stream = buffer.cursor();
            ReplayBuffer::Cursor eval_stream = buffer.cursor();
            const ExperimentResult streamed = runExperimentStreams(
                profile_stream, eval_stream, configs[i]);
            stream_totals.push_back(fromResult(streamed));
        }
    }

    // Path agreement on the shared totals, golden or not.
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectMatchesGolden(cells[i].totals, stream_totals[i],
                            name + " cell " + std::to_string(i) +
                                " (paths)");

    if (std::getenv("BPSIM_WRITE_GOLDEN") != nullptr) {
        writeScenarioGoldenFile(name, cells);
        return;
    }

    const std::string path = goldenPath(name);
    ASSERT_TRUE(std::ifstream(path).good())
        << path << " missing; regenerate with BPSIM_WRITE_GOLDEN=1";
    const JsonValue golden = JsonValue::parseFile(path);
    EXPECT_EQ(golden.at("schema").asString(), "bpsim-golden-v1");
    EXPECT_EQ(golden.at("predictor").asString(), name);

    const JsonValue &golden_cells = golden.at("cells");
    std::size_t index = 0;
    for (const ScenarioKind kind : scenarioGoldenKinds) {
        for (const StaticScheme scheme : scenarioGoldenSchemes) {
            const std::string key = scenarioCellKey(kind, scheme);
            const JsonValue *cell = golden_cells.find(key);
            ASSERT_NE(cell, nullptr)
                << "no golden cell for " << key << " in " << path;
            expectMatchesScenarioGolden(scenarioCellFromJson(*cell),
                                        cells[index++], key);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScenarioGoldenTest,
    ::testing::ValuesIn(PredictorRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (std::isalnum(static_cast<unsigned char>(c)) == 0)
                c = '_';
        return name;
    });

} // namespace
} // namespace bpsim
