/**
 * @file
 * Differential and property suite for multi-context scenarios: a
 * scenario cell must be deterministic at any thread count, round-trip
 * its per-context attribution through checkpoints and shards, degrade
 * to the member's plain cell bit-for-bit with a single member, and
 * keep its attribution arithmetic consistent with the shared SimStats
 * totals.
 *
 * Like test_fault.cc, tests that arm the process-wide FaultInjector
 * use a fixture whose TearDown disarms it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "oracle.hh"
#include "scenario/scenario.hh"
#include "support/fault.hh"
#include "support/random.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

constexpr Count testProfileBranches = 60'000;
constexpr Count testEvalBranches = 120'000;
constexpr std::size_t testContexts = 2;

ExperimentConfig
scenarioConfig(PredictorKind kind, StaticScheme scheme,
               std::size_t contexts = testContexts)
{
    ExperimentConfig config;
    config.kind = kind;
    config.sizeBytes = 2048;
    config.scheme = scheme;
    config.profileBranches = testProfileBranches;
    config.evalBranches = testEvalBranches;
    config.scenarioContexts = contexts;
    return config;
}

std::vector<SyntheticProgram>
testMembers()
{
    std::vector<SyntheticProgram> members;
    members.push_back(makeSpecProgram(SpecProgram::Go, InputSet::Ref));
    members.push_back(
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
    return members;
}

ScenarioSpec
specOf(ScenarioKind kind)
{
    ScenarioSpec spec;
    spec.kind = kind;
    // Several context switches inside the 180k-branch run.
    spec.quantum = 5'000;
    return spec;
}

/**
 * 3 scenario kinds x 2 predictor kinds x 3 schemes = 18 cells, all
 * sharing two member programs through three interleaves.
 */
void
addScenarioCells(ExperimentRunner &runner)
{
    for (const auto scenario :
         {ScenarioKind::Smt, ScenarioKind::ContextSwitch,
          ScenarioKind::Server}) {
        const std::size_t workload =
            runner.addWorkload(std::make_unique<ScenarioWorkload>(
                specOf(scenario), testMembers()));
        for (const auto kind :
             {PredictorKind::Gshare, PredictorKind::Bimodal}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                runner.addCell(workload,
                               scenarioConfig(kind, scheme));
            }
        }
    }
}

MatrixResult
runScenarioMatrix(const RunnerOptions &options)
{
    ExperimentRunner runner(options);
    addScenarioCells(runner);
    return runner.run();
}

RunnerOptions
matrixOptions(unsigned threads)
{
    RunnerOptions options;
    options.threads = threads;
    return options;
}

/** Single-thread reference run of the scenario matrix. */
const MatrixResult &
scenarioReference()
{
    static const MatrixResult reference =
        runScenarioMatrix(matrixOptions(1));
    return reference;
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mispredictions, b.mispredictions);
    EXPECT_EQ(a.staticPredicted, b.staticPredicted);
    EXPECT_EQ(a.staticMispredictions, b.staticMispredictions);
    EXPECT_EQ(a.collisions.lookups, b.collisions.lookups);
    EXPECT_EQ(a.collisions.collisions, b.collisions.collisions);
    EXPECT_EQ(a.collisions.constructive, b.collisions.constructive);
    EXPECT_EQ(a.collisions.destructive, b.collisions.destructive);
}

/** Stats plus the scenario attribution payload, field by field. */
void
expectSameScenarioCell(const CellResult &a, const CellResult &b)
{
    expectSameStats(a.result.stats, b.result.stats);
    EXPECT_EQ(a.result.hintCount, b.result.hintCount);
    EXPECT_EQ(a.result.simulatedBranches, b.result.simulatedBranches);

    ASSERT_EQ(a.result.contextStats.size(),
              b.result.contextStats.size());
    for (std::size_t c = 0; c < a.result.contextStats.size(); ++c) {
        const ContextStats &x = a.result.contextStats[c];
        const ContextStats &y = b.result.contextStats[c];
        EXPECT_EQ(x.branches, y.branches) << "context " << c;
        EXPECT_EQ(x.instructions, y.instructions) << "context " << c;
        EXPECT_EQ(x.mispredictions, y.mispredictions)
            << "context " << c;
        EXPECT_EQ(x.staticPredicted, y.staticPredicted)
            << "context " << c;
        EXPECT_EQ(x.collisions, y.collisions) << "context " << c;
    }

    oracle::expectSameAliasMatrix(a.result.aliasMatrix,
                                  b.result.aliasMatrix);
}

void
expectSameMatrix(const MatrixResult &run, const MatrixResult &ref)
{
    ASSERT_EQ(run.cells.size(), ref.cells.size());
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        ASSERT_TRUE(run.cells[i].ok()) << "cell " << i;
        expectSameScenarioCell(run.cells[i], ref.cells[i]);
    }
    EXPECT_EQ(run.failedCells, ref.failedCells);
    EXPECT_EQ(run.totalBranches, ref.totalBranches);
    EXPECT_EQ(run.actualBranches, ref.actualBranches);
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/**
 * The degenerate scenario: a single member is context 0, whose PC
 * space is unshifted, so the interleaved stream is the member's
 * stream byte for byte and every statistic must match the plain
 * program's cell exactly. Only the attribution payload (one context
 * covering everything, a 1x1 matrix) is extra.
 */
TEST(ScenarioTest, SingleContextBitIdenticalToPlainProgram)
{
    const auto schemes = {StaticScheme::None, StaticScheme::Static95,
                          StaticScheme::StaticAcc};

    RunnerOptions options = matrixOptions(1);
    ExperimentRunner plain(options);
    const std::size_t program =
        plain.addProgram(makeSpecProgram(SpecProgram::Go, InputSet::Ref));
    for (const auto scheme : schemes)
        plain.addCell(program, scenarioConfig(PredictorKind::Gshare,
                                              scheme, 0));
    const MatrixResult plain_result = plain.run();

    ExperimentRunner scenario(options);
    std::vector<SyntheticProgram> solo;
    solo.push_back(makeSpecProgram(SpecProgram::Go, InputSet::Ref));
    const std::size_t workload =
        scenario.addWorkload(std::make_unique<ScenarioWorkload>(
            specOf(ScenarioKind::Smt), std::move(solo)));
    for (const auto scheme : schemes)
        scenario.addCell(workload, scenarioConfig(
                                       PredictorKind::Gshare, scheme, 1));
    const MatrixResult scenario_result = scenario.run();

    ASSERT_EQ(plain_result.cells.size(), scenario_result.cells.size());
    for (std::size_t i = 0; i < plain_result.cells.size(); ++i) {
        ASSERT_TRUE(plain_result.cells[i].ok()) << "cell " << i;
        ASSERT_TRUE(scenario_result.cells[i].ok()) << "cell " << i;
        expectSameStats(plain_result.cells[i].result.stats,
                        scenario_result.cells[i].result.stats);
        EXPECT_EQ(plain_result.cells[i].result.hintCount,
                  scenario_result.cells[i].result.hintCount);
        EXPECT_EQ(plain_result.cells[i].result.simulatedBranches,
                  scenario_result.cells[i].result.simulatedBranches);

        // Plain cells carry no attribution; the scenario's single
        // context owns every measured branch.
        EXPECT_TRUE(plain_result.cells[i].result.contextStats.empty());
        const ExperimentResult &attr = scenario_result.cells[i].result;
        ASSERT_EQ(attr.contextStats.size(), 1u);
        EXPECT_EQ(attr.contextStats[0].branches, attr.stats.branches);
        EXPECT_EQ(attr.contextStats[0].mispredictions,
                  attr.stats.mispredictions);
        ASSERT_EQ(attr.aliasMatrix.size(), 1u);
    }
}

TEST(ScenarioTest, DeterministicAtAnyThreadCount)
{
    const MatrixResult &reference = scenarioReference();
    for (const unsigned threads : {1u, 2u, 4u}) {
        const MatrixResult run =
            runScenarioMatrix(matrixOptions(threads));
        expectSameMatrix(run, reference);
    }
}

/**
 * Attribution is a partition, not an estimate: summed over contexts,
 * every per-context counter reproduces the shared predictor's
 * SimStats total exactly, and the alias matrix never classifies more
 * collisions than it saw.
 */
TEST(ScenarioTest, PerContextSumsMatchSharedTotals)
{
    const MatrixResult &reference = scenarioReference();
    for (std::size_t i = 0; i < reference.cells.size(); ++i) {
        const ExperimentResult &result = reference.cells[i].result;
        ASSERT_EQ(result.contextStats.size(), testContexts)
            << "cell " << i;

        ContextStats sum;
        for (const ContextStats &ctx : result.contextStats) {
            sum.branches += ctx.branches;
            sum.instructions += ctx.instructions;
            sum.mispredictions += ctx.mispredictions;
            sum.staticPredicted += ctx.staticPredicted;
            sum.collisions += ctx.collisions;
        }
        EXPECT_EQ(sum.branches, result.stats.branches) << "cell " << i;
        EXPECT_EQ(sum.instructions, result.stats.instructions)
            << "cell " << i;
        EXPECT_EQ(sum.mispredictions, result.stats.mispredictions)
            << "cell " << i;
        EXPECT_EQ(sum.staticPredicted, result.stats.staticPredicted)
            << "cell " << i;
        EXPECT_EQ(sum.collisions, result.stats.collisions.collisions)
            << "cell " << i;

        ASSERT_EQ(result.aliasMatrix.size(), testContexts * testContexts)
            << "cell " << i;
        Count matrix_collisions = 0;
        for (const ContextAliasCell &cell : result.aliasMatrix) {
            EXPECT_LE(cell.constructive + cell.destructive,
                      cell.collisions)
                << "cell " << i;
            matrix_collisions += cell.collisions;
        }
        // The matrix only counts lookups whose entry carried a
        // previous occupant's tag; cold entries collide with nobody.
        EXPECT_LE(matrix_collisions, result.stats.collisions.collisions)
            << "cell " << i;
    }
}

/**
 * A context-switch quantum longer than the whole run never schedules
 * past context 0: context 1 owns nothing and the interference matrix
 * stays on the diagonal.
 */
TEST(ScenarioTest, OversizedQuantumNeverInterleaves)
{
    ScenarioSpec spec;
    spec.kind = ScenarioKind::ContextSwitch;
    spec.quantum = 10'000'000;

    RunnerOptions options = matrixOptions(1);
    ExperimentRunner runner(options);
    const std::size_t workload = runner.addWorkload(
        std::make_unique<ScenarioWorkload>(spec, testMembers()));
    runner.addCell(workload, scenarioConfig(PredictorKind::Gshare,
                                            StaticScheme::None));
    const MatrixResult result = runner.run();

    ASSERT_EQ(result.cells.size(), 1u);
    ASSERT_TRUE(result.cells[0].ok());
    const ExperimentResult &attr = result.cells[0].result;
    ASSERT_EQ(attr.contextStats.size(), testContexts);
    EXPECT_GT(attr.contextStats[0].branches, 0u);
    EXPECT_EQ(attr.contextStats[1].branches, 0u);
    EXPECT_EQ(attr.contextStats[1].instructions, 0u);
    EXPECT_EQ(attr.contextStats[1].mispredictions, 0u);
    EXPECT_EQ(attr.contextStats[1].collisions, 0u);

    ASSERT_EQ(attr.aliasMatrix.size(), testContexts * testContexts);
    for (std::size_t v = 0; v < testContexts; ++v) {
        for (std::size_t a = 0; a < testContexts; ++a) {
            if (v == a)
                continue;
            EXPECT_EQ(attr.aliasMatrix[v * testContexts + a].collisions,
                      0u)
                << "victim " << v << " aggressor " << a;
        }
    }
}

/**
 * Sharding composes with scenarios: each cell executes in exactly one
 * shard, and the union of the shards reproduces the full matrix —
 * including the per-context payloads — bit for bit.
 */
TEST(ScenarioTest, ShardUnionEqualsFullMatrix)
{
    const MatrixResult &reference = scenarioReference();
    constexpr unsigned shard_count = 2;

    std::vector<MatrixResult> shards;
    for (unsigned shard = 1; shard <= shard_count; ++shard) {
        RunnerOptions options = matrixOptions(2);
        options.shardIndex = shard;
        options.shardCount = shard_count;
        shards.push_back(runScenarioMatrix(options));
    }

    for (std::size_t i = 0; i < reference.cells.size(); ++i) {
        const CellResult *owner = nullptr;
        for (const MatrixResult &shard : shards) {
            ASSERT_EQ(shard.cells.size(), reference.cells.size());
            if (shard.cells[i].shardSkipped)
                continue;
            EXPECT_EQ(owner, nullptr)
                << "cell " << i << " executed by two shards";
            owner = &shard.cells[i];
        }
        ASSERT_NE(owner, nullptr) << "cell " << i << " executed nowhere";
        ASSERT_TRUE(owner->ok()) << "cell " << i;
        expectSameScenarioCell(*owner, reference.cells[i]);
    }
}

class ScenarioFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }
};

/** Cell index 1 of the scenario matrix: the smt workload's
 * gshare/static_95 cell. */
constexpr const char *targetLabel =
    "smt{go,compress}/gshare:2048/static_95";
constexpr std::size_t targetIndex = 1;

TEST_F(ScenarioFaultTest, FaultInOneScenarioCellLeavesOthersIntact)
{
    const MatrixResult &reference = scenarioReference();
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::CellFailed, 1,
                                  targetLabel);
    const MatrixResult result = runScenarioMatrix(matrixOptions(2));

    EXPECT_EQ(result.failedCells, 1u);
    const CellResult &failed = result.cells[targetIndex];
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->code(), ErrorCode::CellFailed);

    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        if (i == targetIndex)
            continue;
        ASSERT_TRUE(result.cells[i].ok()) << "cell " << i;
        expectSameScenarioCell(result.cells[i], reference.cells[i]);
    }
}

/**
 * Mid-scenario checkpoint/resume: an interrupted sweep checkpoints
 * every cell but the killed one; resuming restores them — contexts
 * and alias matrix included, proving the arrays round-trip the
 * checkpoint encoding — and re-runs only the gap, landing bit-equal
 * to the uninterrupted reference at any thread count.
 */
TEST_F(ScenarioFaultTest, ResumeFromMidScenarioCheckpointIsBitIdentical)
{
    const MatrixResult &reference = scenarioReference();
    const std::string path = tempPath("scenario_resume.jsonl");
    std::remove(path.c_str());

    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::CellFailed, 1,
                                  targetLabel);
    RunnerOptions first = matrixOptions(2);
    first.checkpointPath = path;
    const MatrixResult interrupted = runScenarioMatrix(first);
    EXPECT_EQ(interrupted.failedCells, 1u);
    FaultInjector::instance().disarm();
    const std::string snapshot = readFile(path);

    for (const unsigned threads : {1u, 2u, 4u}) {
        // A successful resume appends the re-run cell; restore the
        // mid-sweep snapshot so every thread count starts equal.
        writeFile(path, snapshot);

        RunnerOptions resume = matrixOptions(threads);
        resume.checkpointPath = path;
        resume.resume = true;
        const MatrixResult resumed = runScenarioMatrix(resume);

        EXPECT_EQ(resumed.failedCells, 0u) << threads << " threads";
        EXPECT_EQ(resumed.restoredCells, resumed.cells.size() - 1)
            << threads << " threads";
        EXPECT_FALSE(resumed.cells[targetIndex].restored);
        expectSameMatrix(resumed, reference);
    }
}

TEST(ScenarioTest, NameAndSeedEncodeEveryStreamParameter)
{
    ScenarioSpec smt = specOf(ScenarioKind::Smt);
    const ScenarioWorkload a(smt, testMembers());
    EXPECT_EQ(a.name(), "smt{go,compress}");

    ScenarioSpec ctxsw = specOf(ScenarioKind::ContextSwitch);
    const ScenarioWorkload b(ctxsw, testMembers());
    EXPECT_EQ(b.name(), "ctxsw:q5000{go,compress}");

    // Stream-identical specs hash alike; any stream-affecting
    // parameter change separates the fingerprints.
    const ScenarioWorkload b2(ctxsw, testMembers());
    EXPECT_EQ(b.seedValue(), b2.seedValue());
    ctxsw.quantum = 6'000;
    const ScenarioWorkload c(ctxsw, testMembers());
    EXPECT_NE(b.seedValue(), c.seedValue());
    EXPECT_NE(a.seedValue(), b.seedValue());

    ScenarioSpec server = specOf(ScenarioKind::Server);
    server.zipfExponent = 1.5;
    server.requestLength = 256;
    server.seed = 789;
    const ScenarioWorkload d(server, testMembers());
    EXPECT_EQ(d.name(), "server:z1.5:r256:s789{go,compress}");
}

/** Same spec, same seed: the server interleave replays identically,
 * across both a fresh construction and a reset(). */
TEST(ScenarioTest, ServerArrivalsAreSeedDeterministic)
{
    ScenarioSpec spec = specOf(ScenarioKind::Server);
    ScenarioWorkload a(spec, testMembers());
    ScenarioWorkload b(spec, testMembers());

    constexpr Count probe = 20'000;
    std::vector<BranchRecord> first(probe);
    for (Count i = 0; i < probe; ++i) {
        ASSERT_TRUE(a.next(first[i]));
        BranchRecord other;
        ASSERT_TRUE(b.next(other));
        EXPECT_EQ(first[i].pc, other.pc) << "record " << i;
        EXPECT_EQ(first[i].taken, other.taken) << "record " << i;
    }

    a.reset();
    for (Count i = 0; i < probe; ++i) {
        BranchRecord replay;
        ASSERT_TRUE(a.next(replay));
        ASSERT_EQ(first[i].pc, replay.pc) << "record " << i;
        EXPECT_EQ(first[i].taken, replay.taken) << "record " << i;
    }
}

/**
 * The Zipf popularity sampler behind server scenarios: identically
 * seeded draws agree, and 100k-draw empirical frequencies track the
 * analytic mass() within a generous tolerance.
 */
TEST(ScenarioTest, ZipfSamplerIsDeterministicAndMatchesMass)
{
    constexpr std::size_t tenants = 4;
    const Rng::Zipf zipf(tenants, 1.2);

    Rng a(0xC0117);
    Rng b(0xC0117);
    std::vector<Count> histogram(tenants, 0);
    constexpr Count draws = 100'000;
    for (Count i = 0; i < draws; ++i) {
        const std::size_t x = zipf.sample(a);
        ASSERT_EQ(x, zipf.sample(b)) << "draw " << i;
        ASSERT_LT(x, tenants);
        ++histogram[x];
    }

    double mass_total = 0.0;
    for (std::size_t i = 0; i < tenants; ++i) {
        const double freq =
            static_cast<double>(histogram[i]) / draws;
        EXPECT_NEAR(freq, zipf.mass(i), 0.01) << "tenant " << i;
        mass_total += zipf.mass(i);
        // Popularity is strictly rank-ordered under s = 1.2.
        if (i > 0) {
            EXPECT_LT(histogram[i], histogram[i - 1]) << "tenant " << i;
        }
    }
    EXPECT_NEAR(mass_total, 1.0, 1e-9);
}

} // namespace
} // namespace bpsim
