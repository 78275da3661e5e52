/**
 * @file
 * Runtime SIMD dispatch suite: the BPSIM_SIMD environment override
 * rules of core/simd.hh, and the differential bit-identity contract
 * of the batch kernels — a run under any dispatch level must equal
 * the oracle (the virtual simulate() loop, tests/oracle.hh) in every
 * deterministic field, at any thread count and across a
 * checkpoint/resume boundary. Forcing BPSIM_SIMD=scalar pins the two
 * compiled kernel units against each other.
 *
 * Tests mutate the process environment (BPSIM_SIMD), so every test
 * runs under a fixture whose SetUp/TearDown clear it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/runner.hh"
#include "core/simd.hh"
#include "obs/run_journal.hh"
#include "oracle.hh"
#include "support/error.hh"
#include "support/fault.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

constexpr Count testProfileBranches = 60'000;
constexpr Count testEvalBranches = 120'000;

ExperimentConfig
testConfig(PredictorKind kind, StaticScheme scheme)
{
    ExperimentConfig config;
    config.kind = kind;
    config.sizeBytes = 2048;
    config.scheme = scheme;
    config.profileBranches = testProfileBranches;
    config.evalBranches = testEvalBranches;
    return config;
}

/** 2 programs x 3 kinds x 2 schemes = 12 cells; the kind spread
 * covers the pc-indexed, history-serialized and multi-table batch
 * kernel shapes. */
void
addTestCells(ExperimentRunner &runner)
{
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind :
             {PredictorKind::Bimodal, PredictorKind::Gshare,
              PredictorKind::TwoBcGskew}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95}) {
                runner.addCell(program, testConfig(kind, scheme));
            }
        }
    }
}

RunnerOptions
matrixOptions(unsigned threads)
{
    RunnerOptions options;
    options.threads = threads;
    return options;
}

MatrixResult
runMatrix(const RunnerOptions &options)
{
    ExperimentRunner runner(options);
    addTestCells(runner);
    return runner.run();
}

/** Oracle identity plus the kernel flag and branch accounting; the
 * simd flags are checked per test since they depend on the level. */
void
expectSameMatrix(const MatrixResult &got,
                 const std::vector<ExperimentResult> &oracle_results)
{
    oracle::expectMatrixMatches(got, oracle_results);
    for (const CellResult &cell : got.cells)
        EXPECT_TRUE(cell.usedKernel);
    EXPECT_EQ(got.failedCells, 0u);
    EXPECT_EQ(got.kernelCells, got.cells.size());
}

class SimdTest : public ::testing::Test
{
  protected:
    void SetUp() override { ::unsetenv("BPSIM_SIMD"); }
    void
    TearDown() override
    {
        ::unsetenv("BPSIM_SIMD");
        FaultInjector::instance().disarm();
    }
};

/** The oracle of every cell of the test matrix. */
const std::vector<ExperimentResult> &
reference()
{
    static const std::vector<ExperimentResult> results = [] {
        ExperimentRunner runner(matrixOptions(1));
        addTestCells(runner);
        runner.materialize();
        return oracle::resultsOf(runner);
    }();
    return results;
}

TEST_F(SimdTest, UnsupportedForcedLevelFallsBackToScalar)
{
    const SimdLevel detected = detectSimdLevel();

    ::setenv("BPSIM_SIMD", "avx2", 1);
    EXPECT_EQ(resolveSimdLevel(), detected == SimdLevel::Avx2
                                      ? SimdLevel::Avx2
                                      : SimdLevel::Scalar);

    ::setenv("BPSIM_SIMD", "neon", 1);
    EXPECT_EQ(resolveSimdLevel(), detected == SimdLevel::Neon
                                      ? SimdLevel::Neon
                                      : SimdLevel::Scalar);
}

TEST_F(SimdTest, UnknownEnvValueIsIgnored)
{
    EXPECT_EQ(resolveSimdLevel(), detectSimdLevel());
    // "off" names no kernel unit: there is no reference path to force.
    for (const char *unknown : {"quantum", "off"}) {
        ::setenv("BPSIM_SIMD", unknown, 1);
        EXPECT_EQ(resolveSimdLevel(), detectSimdLevel()) << unknown;
    }
}

TEST_F(SimdTest, LevelNamesAndWidthsAreConsistent)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Neon), "neon");
    EXPECT_EQ(simdWidth(SimdLevel::Scalar), 1u);
    EXPECT_EQ(simdWidth(SimdLevel::Avx2), 8u);
    EXPECT_EQ(simdWidth(SimdLevel::Neon), 4u);
}

TEST_F(SimdTest, BitIdenticalAcrossDispatchAtAnyThreadCount)
{
    // The detected level, then the portable unit forced: both compiled
    // kernel units must equal the oracle at every thread count.
    for (const char *forced : {"", "scalar"}) {
        if (*forced != '\0')
            ::setenv("BPSIM_SIMD", forced, 1);
        const SimdLevel level = resolveSimdLevel();
        for (const unsigned threads : {1u, 2u, 4u}) {
            const MatrixResult got = runMatrix(matrixOptions(threads));
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         simdLevelName(level));
            expectSameMatrix(got, reference());
            EXPECT_EQ(got.dispatch, simdLevelName(level));
            EXPECT_EQ(got.simdLanes, simdWidth(level));
            // Fused passes batch every shape: plain, profiling and
            // hinted sims, via the shared site index.
            EXPECT_EQ(got.simdCells, got.kernelCells);
        }
    }
}

/** The tagged family (tage, perceptron): 2 programs x 2 predictors x
 * 2 schemes = 8 cells. */
void
addTaggedCells(ExperimentRunner &runner)
{
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const char *predictor : {"tage", "perceptron"}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95}) {
                ExperimentConfig config;
                config.predictor = predictor;
                config.sizeBytes = 2048;
                config.scheme = scheme;
                config.profileBranches = testProfileBranches;
                config.evalBranches = testEvalBranches;
                runner.addCell(program, config);
            }
        }
    }
}

TEST_F(SimdTest, TaggedFamilyBitIdenticalAcrossDispatchAtAnyThreadCount)
{
    std::vector<ExperimentResult> oracle_results;
    {
        ExperimentRunner runner(matrixOptions(1));
        addTaggedCells(runner);
        runner.materialize();
        oracle_results = oracle::resultsOf(runner);
    }

    // As for the paper kinds: the detected level, then the portable
    // unit forced, each equal to the oracle with every cell batched.
    for (const char *forced : {"", "scalar"}) {
        if (*forced != '\0')
            ::setenv("BPSIM_SIMD", forced, 1);
        const SimdLevel level = resolveSimdLevel();
        for (const unsigned threads : {1u, 2u, 4u}) {
            ExperimentRunner runner(matrixOptions(threads));
            addTaggedCells(runner);
            const MatrixResult got = runner.run();
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         simdLevelName(level));
            expectSameMatrix(got, oracle_results);
            EXPECT_EQ(got.dispatch, simdLevelName(level));
            EXPECT_EQ(got.simdCells, got.kernelCells);
        }
    }
}

TEST_F(SimdTest, EnvScalarForcesThePortableBatchKernels)
{
    ::setenv("BPSIM_SIMD", "scalar", 1);
    EXPECT_EQ(resolveSimdLevel(), SimdLevel::Scalar);
    const MatrixResult got = runMatrix(matrixOptions(2));
    expectSameMatrix(got, reference());
    EXPECT_EQ(got.dispatch, "scalar");
    EXPECT_EQ(got.simdLanes, 1u);
    EXPECT_EQ(got.simdCells, got.kernelCells);
}

TEST_F(SimdTest, CheckpointRoundTripsAcrossDispatchLevels)
{
    const std::string path =
        ::testing::TempDir() + "simd_checkpoint.jsonl";
    std::remove(path.c_str());

    RunnerOptions first = matrixOptions(2);
    first.checkpointPath = path;
    const MatrixResult executed = runMatrix(first);
    for (const CellResult &cell : executed.cells)
        ASSERT_TRUE(cell.ok());

    // Resume under the portable unit: the fingerprint ignores the
    // dispatch level, so every cell restores, and the persisted path
    // flags survive verbatim.
    ::setenv("BPSIM_SIMD", "scalar", 1);
    RunnerOptions second = matrixOptions(1);
    second.checkpointPath = path;
    second.resume = true;
    const MatrixResult restored = runMatrix(second);

    EXPECT_EQ(restored.restoredCells, restored.cells.size());
    EXPECT_EQ(restored.dispatch, "scalar");
    expectSameMatrix(restored, reference());
    EXPECT_EQ(restored.simdCells, executed.simdCells);
    for (std::size_t i = 0; i < restored.cells.size(); ++i) {
        EXPECT_TRUE(restored.cells[i].restored) << "cell " << i;
        EXPECT_EQ(restored.cells[i].usedSimd,
                  executed.cells[i].usedSimd)
            << "cell " << i;
    }
    std::remove(path.c_str());
}

TEST_F(SimdTest, FaultUnderBatchDispatchKillsOnlyTheTargetedCell)
{
    const std::vector<ExperimentResult> &ref = reference();
    // go's gshare static_95 cell: a batched gang member in the fused
    // pass. Its death must not perturb its gang-mates' batched state.
    constexpr const char *target = "go/gshare:2048/static_95";
    constexpr std::size_t target_index = 3;
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::CellFailed, 1, target);
    const MatrixResult got = runMatrix(matrixOptions(2));

    EXPECT_EQ(got.failedCells, 1u);
    ASSERT_FALSE(got.cells[target_index].ok());
    EXPECT_EQ(got.cells[target_index].error->code(),
              ErrorCode::CellFailed);
    for (std::size_t i = 0; i < got.cells.size(); ++i) {
        if (i == target_index)
            continue;
        ASSERT_TRUE(got.cells[i].ok()) << "cell " << i;
        oracle::expectCellMatches(got.cells[i], ref[i]);
    }
}

TEST_F(SimdTest, JournalRecordsDispatchAndSimdCells)
{
    obs::RunJournal journal("simd journal");
    RunnerOptions options = matrixOptions(2);
    options.journal = &journal;
    const MatrixResult got = runMatrix(options);
    expectSameMatrix(got, reference());

    const obs::JournalSummary summary = journal.summary();
    EXPECT_EQ(summary.dispatch, got.dispatch);
    EXPECT_EQ(summary.simdWidth, got.simdLanes);
    EXPECT_EQ(summary.simdCells, got.simdCells);
    EXPECT_EQ(summary.kernelCells, got.kernelCells);
}

} // namespace
} // namespace bpsim
