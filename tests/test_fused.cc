/**
 * @file
 * Differential bit-identity suite for fused sweep execution, the
 * runner's only path: every cell of a run must equal the per-cell
 * oracle — the cell simulated alone by the virtual simulate() loop
 * (tests/oracle.hh) — at any thread count, with the journal on or
 * off, when resuming from a mid-sweep checkpoint, and when a fault
 * kills one member of a fused group.
 *
 * Like test_fault.cc, tests that arm the process-wide FaultInjector
 * use a fixture whose TearDown disarms it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "obs/run_journal.hh"
#include "oracle.hh"
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

/**
 * 2 programs x 2 kinds x 3 schemes = 12 cells in 2 fused cell groups
 * (one per program), plus 4 profile runs in 2 fused profile groups.
 * Same-kind scheme cells land in one gang; the two kinds make each
 * group heterogeneous across gangs.
 */
void
addTestCells(ExperimentRunner &runner)
{
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind :
             {PredictorKind::Gshare, PredictorKind::Bimodal}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                runner.addCell(program, testConfig(kind, scheme));
            }
        }
    }
}

MatrixResult
runMatrix(RunnerOptions options)
{
    ExperimentRunner runner(options);
    addTestCells(runner);
    return runner.run();
}

RunnerOptions
matrixOptions(unsigned threads)
{
    RunnerOptions options;
    options.threads = threads;
    return options;
}

/** A single-thread run() of a matrix and the oracle of each cell. */
struct Reference
{
    MatrixResult run;
    std::vector<ExperimentResult> oracle;
};

template <typename AddCells>
Reference
referenceOf(AddCells &&add_cells)
{
    ExperimentRunner runner(matrixOptions(1));
    add_cells(runner);
    Reference reference;
    reference.run = runner.run();
    reference.oracle = oracle::resultsOf(runner);
    return reference;
}

const Reference &
reference()
{
    static const Reference ref = referenceOf(addTestCells);
    return ref;
}

/**
 * @p got equals the oracle cell by cell, and the single-thread
 * reference run in the deterministic path and accounting fields.
 */
void
expectSameMatrix(const MatrixResult &got, const Reference &ref)
{
    oracle::expectMatrixMatches(got, ref.oracle);
    ASSERT_EQ(got.cells.size(), ref.run.cells.size());
    for (std::size_t i = 0; i < got.cells.size(); ++i) {
        EXPECT_EQ(got.cells[i].usedKernel, ref.run.cells[i].usedKernel)
            << "cell " << i;
        EXPECT_EQ(got.cells[i].usedSimd, ref.run.cells[i].usedSimd)
            << "cell " << i;
        EXPECT_EQ(got.cells[i].profileCached,
                  ref.run.cells[i].profileCached)
            << "cell " << i;
    }
    EXPECT_EQ(got.failedCells, ref.run.failedCells);
    EXPECT_EQ(got.profileCacheHits, ref.run.profileCacheHits);
    EXPECT_EQ(got.profileCacheMisses, ref.run.profileCacheMisses);
    EXPECT_EQ(got.kernelCells, ref.run.kernelCells);
    EXPECT_EQ(got.simdCells, ref.run.simdCells);
    EXPECT_EQ(got.totalBranches, ref.run.totalBranches);
    EXPECT_EQ(got.actualBranches, ref.run.actualBranches);
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

TEST(FusedTest, BitIdenticalToPerCellAtAnyThreadCount)
{
    const Reference &ref = reference();
    oracle::expectMatrixMatches(ref.run, ref.oracle);
    EXPECT_EQ(ref.run.kernelCells, ref.run.cells.size());
    EXPECT_EQ(ref.run.simdCells, ref.run.cells.size());
    // Serially there is nothing to split: exactly one fused pass per
    // (program, input) pair and phase.
    EXPECT_EQ(ref.run.fusedGroups, 4u);

    for (const unsigned threads : {1u, 2u, 4u}) {
        const MatrixResult fused = runMatrix(matrixOptions(threads));
        // 2 profile groups + 2 cell groups; spare workers may split
        // a group into more chunks, never fewer.
        EXPECT_GE(fused.fusedGroups, 4u) << threads << " threads";
        expectSameMatrix(fused, ref);
    }
}

TEST(FusedTest, JournalDoesNotPerturbResultsAndRecordsGroups)
{
    obs::RunJournal journal("fused journal");
    RunnerOptions options = matrixOptions(2);
    options.journal = &journal;
    const MatrixResult fused = runMatrix(options);
    expectSameMatrix(fused, reference());

    const obs::JournalSummary summary = journal.summary();
    EXPECT_EQ(summary.fusedGroups, fused.fusedGroups);
    // 4 profile members (2 kinds x 2 programs) + 12 cell members.
    EXPECT_EQ(summary.fusedMembers, 16u);
    EXPECT_EQ(summary.cellsBegun, fused.cells.size());
    EXPECT_EQ(summary.cellsEnded, fused.cells.size());
    EXPECT_TRUE(summary.phasesBalanced);
}

TEST(FusedTest, ProfileCacheOffStillBitIdentical)
{
    // Cells whose makeDynamic factory has no dynamicKey cannot share
    // a profiling phase: each profiles privately inside its fused
    // cell chunk. Such cells stay bit-identical to the oracle.
    const auto add_keyless = [](ExperimentRunner &runner) {
        for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
            const std::size_t program =
                runner.addProgram(makeSpecProgram(id, InputSet::Ref));
            for (const auto kind :
                 {PredictorKind::Gshare, PredictorKind::Bimodal}) {
                for (const auto scheme :
                     {StaticScheme::None, StaticScheme::Static95,
                      StaticScheme::StaticAcc}) {
                    ExperimentConfig config = testConfig(kind, scheme);
                    config.makeDynamic = [kind] {
                        return makePredictor(kind, 2048);
                    };
                    runner.addCell(program, config);
                }
            }
        }
    };
    const Reference ref = referenceOf(add_keyless);
    oracle::expectMatrixMatches(ref.run, ref.oracle);
    EXPECT_EQ(ref.run.profileCacheHits, 0u);
    EXPECT_EQ(ref.run.profileCacheMisses, 0u);
    EXPECT_EQ(ref.run.kernelCells, ref.run.cells.size());
    EXPECT_EQ(ref.run.simdCells, ref.run.cells.size());

    ExperimentRunner runner(matrixOptions(2));
    add_keyless(runner);
    const MatrixResult fused = runner.run();
    expectSameMatrix(fused, ref);
    EXPECT_EQ(fused.actualBranches, fused.totalBranches);
    for (const CellResult &cell : fused.cells)
        EXPECT_FALSE(cell.profileCached);
}

/*
 * The benches' own matrices, shortened: fig7_12 (6 programs x the
 * paper's five predictors x none/Static_95/Static_Acc) and
 * fig_tagged_schemes (6 programs x seven registry predictors x four
 * schemes), with small windows. Each must equal the oracle cell by
 * cell at 1, 2 and 4 threads; the paper predictors run the batch
 * kernels, tage and the perceptron — devirtualized via visitPredictor
 * but without batch kernels — the record kernel. Separate cell sets
 * keep the group-count and fault-index assertions above untouched.
 */
constexpr Count shortProfileBranches = 20'000;
constexpr Count shortEvalBranches = 40'000;

void
addShortPaperMatrix(ExperimentRunner &runner)
{
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind : allPredictorKinds()) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                ExperimentConfig config = testConfig(kind, scheme);
                config.sizeBytes = 8192;
                config.profileBranches = shortProfileBranches;
                config.evalBranches = shortEvalBranches;
                runner.addCell(program, config);
            }
        }
    }
}

const std::vector<std::string> taggedMatrixPredictors = {
    "bimodal", "ghist", "gshare", "bimode", "2bcgskew", "tage",
    "perceptron"};

const std::vector<StaticScheme> taggedMatrixSchemes = {
    StaticScheme::None, StaticScheme::Static95, StaticScheme::StaticAcc,
    StaticScheme::StaticFac};

void
addShortTaggedMatrix(ExperimentRunner &runner)
{
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const std::string &predictor : taggedMatrixPredictors) {
            for (const StaticScheme scheme : taggedMatrixSchemes) {
                ExperimentConfig config;
                config.predictor = predictor;
                config.sizeBytes = 8192;
                config.scheme = scheme;
                config.profileBranches = shortProfileBranches;
                config.evalBranches = shortEvalBranches;
                runner.addCell(program, config);
            }
        }
    }
}

TEST(FusedTest, PaperMatrixMatchesOracleAtAnyThreadCount)
{
    const Reference ref = referenceOf(addShortPaperMatrix);
    ASSERT_EQ(ref.run.cells.size(), 90u);
    oracle::expectMatrixMatches(ref.run, ref.oracle);
    for (const CellResult &cell : ref.run.cells) {
        EXPECT_TRUE(cell.usedKernel);
        EXPECT_TRUE(cell.usedSimd);
    }

    for (const unsigned threads : {1u, 2u, 4u}) {
        ExperimentRunner runner(matrixOptions(threads));
        addShortPaperMatrix(runner);
        expectSameMatrix(runner.run(), ref);
    }
}

TEST(FusedTest, TaggedFamilyBitIdenticalToPerCellAtAnyThreadCount)
{
    const Reference ref = referenceOf(addShortTaggedMatrix);
    ASSERT_EQ(ref.run.cells.size(), 168u);
    oracle::expectMatrixMatches(ref.run, ref.oracle);
    std::size_t tagged = 0;
    for (std::size_t i = 0; i < ref.run.cells.size(); ++i) {
        const std::string &name =
            taggedMatrixPredictors[(i / taggedMatrixSchemes.size()) %
                                   taggedMatrixPredictors.size()];
        const CellResult &cell = ref.run.cells[i];
        SCOPED_TRACE("cell " + std::to_string(i) + " " + name);
        EXPECT_TRUE(cell.usedKernel);
        if (name == "tage" || name == "perceptron") {
            EXPECT_FALSE(cell.usedSimd);
            ++tagged;
        } else {
            EXPECT_TRUE(cell.usedSimd);
        }
    }
    EXPECT_EQ(tagged, 48u);

    for (const unsigned threads : {1u, 2u, 4u}) {
        ExperimentRunner runner(matrixOptions(threads));
        addShortTaggedMatrix(runner);
        expectSameMatrix(runner.run(), ref);
    }
}

class FusedFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }
};

/** Cell index 1 of the matrix above: one member of go's fused cell
 * group, gang-mate of indices 0 and 2. */
constexpr const char *targetLabel = "go/gshare:2048/static_95";
constexpr std::size_t targetIndex = 1;

TEST_F(FusedFaultTest, FaultKillsOneMemberSurvivorsUnaffected)
{
    const Reference &ref = reference();
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::CellFailed, 1,
                                  targetLabel);
    const MatrixResult result = runMatrix(matrixOptions(2));

    EXPECT_EQ(result.failedCells, 1u);
    const CellResult &failed = result.cells[targetIndex];
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->code(), ErrorCode::CellFailed);
    EXPECT_EQ(failed.attempts, 1u);

    // The dead member's gang-mates and every other cell still match
    // the oracle bit for bit.
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        if (i == targetIndex)
            continue;
        ASSERT_TRUE(result.cells[i].ok()) << "cell " << i;
        oracle::expectCellMatches(result.cells[i], ref.oracle[i]);
        EXPECT_EQ(result.cells[i].usedKernel,
                  ref.run.cells[i].usedKernel);
        EXPECT_EQ(result.cells[i].profileCached,
                  ref.run.cells[i].profileCached);
    }
}

TEST_F(FusedFaultTest, TransientMemberFaultRetriesWithinTheGroup)
{
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::ResourceExhausted, 1,
                                  targetLabel);
    RunnerOptions options = matrixOptions(2);
    options.retries = 1;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, 0u);
    ASSERT_TRUE(result.cells[targetIndex].ok());
    EXPECT_EQ(result.cells[targetIndex].attempts, 2u);
    expectSameMatrix(result, reference());
}

TEST_F(FusedFaultTest, ResumeFromMidSweepCheckpointIsBitIdentical)
{
    const std::string path = tempPath("fused_resume.jsonl");
    std::remove(path.c_str());

    // Interrupted first attempt: the fault kills one cell, so the
    // checkpoint holds every cell except the target — a mid-sweep
    // snapshot.
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::CellFailed, 1,
                                  targetLabel);
    RunnerOptions first = matrixOptions(2);
    first.checkpointPath = path;
    const MatrixResult interrupted = runMatrix(first);
    EXPECT_EQ(interrupted.failedCells, 1u);
    FaultInjector::instance().disarm();
    const std::string snapshot = readFile(path);

    for (const unsigned threads : {1u, 2u, 4u}) {
        // A successful resume appends the re-run cell to the
        // checkpoint; restore the mid-sweep snapshot so every thread
        // count resumes from the same partial state.
        writeFile(path, snapshot);

        obs::RunJournal journal("fused resume");
        RunnerOptions resume = matrixOptions(threads);
        resume.checkpointPath = path;
        resume.resume = true;
        resume.journal = &journal;
        const MatrixResult resumed = runMatrix(resume);

        EXPECT_EQ(resumed.failedCells, 0u) << threads << " threads";
        EXPECT_EQ(resumed.restoredCells, resumed.cells.size() - 1)
            << threads << " threads";
        EXPECT_FALSE(resumed.cells[targetIndex].restored);
        expectSameMatrix(resumed, reference());

        EXPECT_EQ(journal.summary().cellsRestored,
                  resumed.cells.size() - 1);
    }
}

} // namespace
} // namespace bpsim
