/**
 * @file
 * The test suite's differential oracle: the virtual simulate() loop,
 * reached through runExperimentStreams() over cursors of a runner's
 * own replay buffers, one cell at a time. Every production path — the
 * fused runner at any thread count, the batch kernels at any dispatch
 * level — must reproduce it exactly.
 */

#ifndef BPSIM_TESTS_ORACLE_HH
#define BPSIM_TESTS_ORACLE_HH

#include <gtest/gtest.h>

#include <vector>

#include "core/runner.hh"
#include "profile/profile_db.hh"

namespace bpsim::oracle
{

/** Every SimStats field, exactly. */
inline void
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

/** Every per-branch profile count, exactly. */
inline void
expectSameProfile(const ProfileDb &a, const ProfileDb &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[pc, profile] : a.entries()) {
        const BranchProfile *other = b.find(pc);
        ASSERT_NE(other, nullptr) << "pc " << std::hex << pc;
        EXPECT_EQ(profile.executed, other->executed);
        EXPECT_EQ(profile.taken, other->taken);
        EXPECT_EQ(profile.predicted, other->predicted);
        EXPECT_EQ(profile.correct, other->correct);
        EXPECT_EQ(profile.collisions, other->collisions);
    }
}

/** Every cell of a victim x aggressor interference matrix, exactly. */
inline void
expectSameAliasMatrix(const std::vector<ContextAliasCell> &a,
                      const std::vector<ContextAliasCell> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].collisions, b[i].collisions) << "matrix cell " << i;
        EXPECT_EQ(a[i].constructive, b[i].constructive)
            << "matrix cell " << i;
        EXPECT_EQ(a[i].destructive, b[i].destructive)
            << "matrix cell " << i;
    }
}

/**
 * The oracle's result for cell @p index of @p runner, whose buffers
 * run() (or materialize()) has filled. Scenario cells get the shared
 * totals only: the stream path computes no per-context attribution.
 */
inline ExperimentResult
resultOf(const ExperimentRunner &runner, std::size_t index)
{
    const MatrixCell &cell = runner.cell(index);
    const ExperimentConfig &config = cell.config;
    const ReplayBuffer &eval =
        runner.buffer(cell.programIndex, config.evalInput);
    const ReplayBuffer &profile =
        config.scheme == StaticScheme::None
            ? eval
            : runner.buffer(cell.programIndex, config.profileInput);
    ReplayBuffer::Cursor profile_stream = profile.cursor();
    ReplayBuffer::Cursor eval_stream = eval.cursor();
    return runExperimentStreams(profile_stream, eval_stream, config);
}

/** resultOf() for every cell of @p runner. */
inline std::vector<ExperimentResult>
resultsOf(const ExperimentRunner &runner)
{
    std::vector<ExperimentResult> results;
    for (std::size_t i = 0; i < runner.cellCount(); ++i)
        results.push_back(resultOf(runner, i));
    return results;
}

/** A cell's deterministic result fields equal the oracle's. */
inline void
expectCellMatches(const CellResult &got, const ExperimentResult &expected)
{
    expectSameStats(got.result.stats, expected.stats);
    EXPECT_EQ(got.result.hintCount, expected.hintCount);
    EXPECT_EQ(got.result.simulatedBranches, expected.simulatedBranches);
}

/** Every cell of @p got succeeded and equals the oracle. */
inline void
expectMatrixMatches(const MatrixResult &got,
                    const std::vector<ExperimentResult> &expected)
{
    ASSERT_EQ(got.cells.size(), expected.size());
    for (std::size_t i = 0; i < got.cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        ASSERT_TRUE(got.cells[i].ok());
        expectCellMatches(got.cells[i], expected[i]);
    }
}

} // namespace bpsim::oracle

#endif // BPSIM_TESTS_ORACLE_HH
