/**
 * @file
 * Tests for the workflow-level extensions: Lindsay-style iterative
 * selection, the profile repository (multi-run Spike database), the
 * pipeline CPI model, and the gselect predictor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cpi_model.hh"
#include "core/engine.hh"
#include "core/experiment.hh"
#include "core/iterative.hh"
#include "predictor/gselect.hh"
#include "profile/repository.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

TEST(IterativeSelectionTest, ConvergesAndAccumulates)
{
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    IterativeConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 4096;
    config.profileBranches = 300000;
    config.maxIterations = 4;

    const IterativeResult result =
        selectStaticIterative(program, config);
    EXPECT_GE(result.iterations, 1u);
    EXPECT_LE(result.iterations, 4u);
    EXPECT_GT(result.hints.size(), 10u);
    ASSERT_EQ(result.addedPerRound.size(), result.iterations);
    // The first round must find the bulk of the hints.
    EXPECT_GE(result.addedPerRound[0], result.hints.size() / 2);
}

TEST(IterativeSelectionTest, HintsImproveThePredictor)
{
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    IterativeConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 4096;
    config.profileBranches = 400000;

    const IterativeResult selection =
        selectStaticIterative(program, config);

    SimOptions options;
    options.maxBranches = 400000;
    program.setInput(InputSet::Ref);

    auto baseline = makePredictor(config.kind, config.sizeBytes);
    const SimStats base = simulate(*baseline, program, options);

    CombinedPredictor combined(
        makePredictor(config.kind, config.sizeBytes),
        selection.hints);
    const SimStats with = simulate(combined, program, options);
    EXPECT_LT(with.mispKi(), base.mispKi());
}

TEST(CpiModelTest, Arithmetic)
{
    SimStats stats;
    stats.instructions = 1000;
    stats.mispredictions = 10;
    const double cpi = estimateCpi(stats);
    EXPECT_DOUBLE_EQ(cpi, 1.0 + 7.0 * 10.0 / 1000.0);

    SimStats better = stats;
    better.mispredictions = 0;
    EXPECT_DOUBLE_EQ(estimateCpi(better), 1.0);
    EXPECT_NEAR(estimateSpeedup(stats, better), 1.07, 1e-9);

    PipelineParams deep;
    deep.baseCpi = 0.5;
    deep.mispredictPenalty = 20.0;
    EXPECT_DOUBLE_EQ(estimateCpi(stats, deep), 0.5 + 0.2);
}

class RepositoryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = testing::TempDir() + "bpsim_repo_" +
              std::to_string(::getpid());
        std::filesystem::remove_all(dir);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    ProfileDb
    makeRun(Addr pc, Count executed, double taken_rate)
    {
        ProfileDb db;
        for (Count i = 0; i < executed; ++i) {
            db.recordOutcome(
                pc, i < static_cast<Count>(taken_rate *
                                           static_cast<double>(
                                               executed)));
        }
        return db;
    }

    std::string dir;
};

TEST_F(RepositoryTest, AddAndCountRuns)
{
    ProfileRepository repo(dir);
    EXPECT_EQ(repo.runCount("gcc"), 0u);
    EXPECT_EQ(repo.addRun("gcc", makeRun(0x100, 50, 0.9)), 0u);
    EXPECT_EQ(repo.addRun("gcc", makeRun(0x100, 50, 0.8)), 1u);
    EXPECT_EQ(repo.runCount("gcc"), 2u);
    EXPECT_EQ(repo.runCount("perl"), 0u);

    // A fresh handle sees the same persisted state.
    ProfileRepository reopened(dir);
    EXPECT_EQ(reopened.runCount("gcc"), 2u);
}

TEST_F(RepositoryTest, MergedSumsAcrossRuns)
{
    ProfileRepository repo(dir);
    repo.addRun("gcc", makeRun(0x100, 100, 0.9));
    repo.addRun("gcc", makeRun(0x100, 100, 0.7));
    const ProfileDb merged = repo.merged("gcc").value();
    ASSERT_NE(merged.find(0x100), nullptr);
    EXPECT_EQ(merged.find(0x100)->executed, 200u);
    EXPECT_EQ(merged.find(0x100)->taken, 160u);
}

TEST_F(RepositoryTest, StableMergeDropsUnstableBranches)
{
    ProfileRepository repo(dir);
    // Branch A stable across runs; branch B reverses.
    ProfileDb run0 = makeRun(0xa0, 100, 0.9);
    run0.mergeAdd(makeRun(0xb0, 100, 0.9));
    ProfileDb run1 = makeRun(0xa0, 100, 0.88);
    run1.mergeAdd(makeRun(0xb0, 100, 0.1));
    repo.addRun("gcc", run0);
    repo.addRun("gcc", run1);

    const ProfileDb stable = repo.stableMerged("gcc", 0.05).value();
    EXPECT_NE(stable.find(0xa0), nullptr);
    EXPECT_EQ(stable.find(0xb0), nullptr);
    // The survivor carries the merged counts.
    EXPECT_EQ(stable.find(0xa0)->executed, 200u);
}

TEST_F(RepositoryTest, CoverageHolesAreNotInstability)
{
    ProfileRepository repo(dir);
    ProfileDb run0 = makeRun(0xa0, 100, 0.9);
    ProfileDb run1 = makeRun(0xc0, 100, 0.5); // 0xa0 absent: fine
    repo.addRun("gcc", run0);
    repo.addRun("gcc", run1);
    const ProfileDb stable = repo.stableMerged("gcc", 0.05).value();
    EXPECT_NE(stable.find(0xa0), nullptr);
    EXPECT_NE(stable.find(0xc0), nullptr);
}

/** Store @p text as @p program's run @p run in @p dir, where a
 * damaged or hand-edited run file would sit; returns its path. */
std::string
writeRunFile(const std::string &dir, const std::string &program,
             unsigned run, const std::string &text)
{
    const std::string path =
        dir + "/" + program + ".run" + std::to_string(run) + ".profile";
    std::ofstream(path) << text;
    return path;
}

/** @p result failed as io_failure, naming @p where. */
void
expectLoadFailure(const Result<ProfileDb> &result, const std::string &where)
{
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::IoFailure);
    EXPECT_NE(result.error().describe().find(where), std::string::npos)
        << result.error().describe();
}

TEST_F(RepositoryTest, TruncatedRunFailsAtItsBadLine)
{
    // A bad PC on the second of four lines fails the whole load, not
    // just the lines after it.
    ProfileRepository repo(dir);
    const std::string path = writeRunFile(dir, "gcc", 0,
                                          "0x100 10 9 10 8 0\n"
                                          "0xzz 10 9 10 8 0\n"
                                          "0x108 10 9 10 8 0\n"
                                          "0x10c 10 9 10 8 0\n");
    expectLoadFailure(ProfileDb::load(path), path + ":2");
    expectLoadFailure(repo.loadRun("gcc", 0), path + ":2");
    expectLoadFailure(repo.merged("gcc"), path + ":2");
    expectLoadFailure(repo.stableMerged("gcc", 0.05), path + ":2");
}

TEST_F(RepositoryTest, ImpossibleOrMalformedCountsFail)
{
    ProfileRepository repo(dir);
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"0x104 10 11 10 8 0", "taken exceeds executed"},
        {"0x104 10 9 11 8 0", "predicted exceeds executed"},
        {"0x104 10 9 8 9 0", "correct exceeds predicted"},
        {"0x104 10 9 10 8", "expected"},
        {"0x104 10 9 10 8 0 7", "trailing"},
        {"0x104 -1 0 0 0 0", "expected"},
        {"0x104 99999999999999999999 0 0 0 0", "expected"},
        {"", "expected"},
        {"0x100 1 1 1 1 0", "earlier line"}};
    for (const auto &[line, problem] : cases) {
        SCOPED_TRACE("line '" + line + "'");
        const std::string path = writeRunFile(
            dir, "gcc", 0, "0x100 10 9 10 8 0\n" + line + "\n");
        expectLoadFailure(ProfileDb::load(path), path + ":2");
        expectLoadFailure(ProfileDb::load(path), problem);
        expectLoadFailure(repo.merged("gcc"), problem);
    }
    // The counts save() writes load back, PC 0 included.
    const std::string path = writeRunFile(
        dir, "gcc", 0, "0 3 3 2 2 5\n0x104 10 0 10 10 0\r\n");
    const Result<ProfileDb> loaded = ProfileDb::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().size(), 2u);
    EXPECT_EQ(loaded.value().find(0)->collisions, 5u);
}

TEST_F(RepositoryTest, MissingFilesAreErrorsNotExits)
{
    ProfileRepository repo(dir);
    expectLoadFailure(repo.loadRun("gcc", 3), "no run 3");
    expectLoadFailure(ProfileDb::load(dir + "/absent.profile"),
                      "cannot open profile");
}

TEST(GselectTest, SizingAndIndexSplit)
{
    Gselect predictor(8192); // 32768 entries: 15 index bits
    EXPECT_EQ(predictor.sizeBytes(), 8192u);
    EXPECT_EQ(predictor.historyBits(), 7u); // half of 15, floored
}

TEST(GselectTest, LearnsAlternationAndSeparatesBranches)
{
    Gselect predictor(2048);
    double correct = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const bool taken = i % 2 == 0;
        const bool prediction = predictor.predict(0x1000);
        predictor.update(0x1000, taken);
        predictor.updateHistory(taken);
        correct += prediction == taken;
    }
    EXPECT_GT(correct / n, 0.95);
}

TEST(GselectTest, FactoryName)
{
    auto predictor = makePredictor("gselect:4096");
    EXPECT_EQ(predictor->name(), "gselect");
    EXPECT_EQ(predictor->sizeBytes(), 4096u);
}

} // namespace
} // namespace bpsim
