/**
 * @file
 * Tests for the replay buffer and the parallel experiment-matrix
 * runner: replayed streams must be byte-identical to regenerated
 * ones, and matrix results must not depend on the thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/runner.hh"
#include "oracle.hh"
#include "trace/memory_trace.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

/** Small phase budgets keep the whole file fast. */
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

RunnerOptions
threadOptions(unsigned threads)
{
    RunnerOptions options;
    options.threads = threads;
    return options;
}

using oracle::expectSameStats;

TEST(ReplayBufferTest, RoundTripsRecords)
{
    MemoryTrace trace;
    trace.append({0x100, true, 7});
    trace.append({0x200, false, 1});
    trace.append({0x300, true, 0x7fffffff});
    // Drain the trace first so materialize()'s reset is exercised.
    BranchRecord sink;
    while (trace.next(sink)) {
    }

    const ReplayBuffer buffer = ReplayBuffer::materialize(trace, 100);
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer.instructionCount(),
              Count{7} + 1 + 0x7fffffff);
    EXPECT_EQ(buffer.memoryBytes(),
              3 * ReplayBuffer::bytesPerBranch);

    ReplayBuffer::Cursor cursor = buffer.cursor();
    BranchRecord record;
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record, (BranchRecord{0x100, true, 7}));
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record, (BranchRecord{0x200, false, 1}));
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record, (BranchRecord{0x300, true, 0x7fffffff}));
    EXPECT_FALSE(cursor.next(record));

    cursor.reset();
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record.pc, 0x100u);
}

TEST(ReplayBufferTest, LimitBoundsCapture)
{
    MemoryTrace trace;
    for (int i = 0; i < 50; ++i)
        trace.append({0x100, true, 1});
    const ReplayBuffer buffer = ReplayBuffer::materialize(trace, 20);
    EXPECT_EQ(buffer.size(), 20u);
}

TEST(ReplayBufferTest, MatchesRegeneratedProgramStream)
{
    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Ref);
        const ReplayBuffer buffer =
            ReplayBuffer::materialize(program, 50'000);
        ASSERT_EQ(buffer.size(), 50'000u);

        program.reset();
        ReplayBuffer::Cursor cursor = buffer.cursor();
        BranchRecord live;
        BranchRecord replayed;
        for (Count i = 0; i < buffer.size(); ++i) {
            ASSERT_TRUE(program.next(live));
            ASSERT_TRUE(cursor.next(replayed));
            ASSERT_EQ(live, replayed)
                << specProgramName(id) << " record " << i;
        }
    }
}

TEST(RunnerTest, ReplayedExperimentIdenticalToRegenerated)
{
    // The replay path must produce byte-identical SimStats for every
    // SPEC program, including a profiling phase (Static95 exercises
    // selection) and the dynamic baseline.
    for (const auto id : allSpecPrograms()) {
        for (const auto scheme :
             {StaticScheme::None, StaticScheme::Static95}) {
            const ExperimentConfig config =
                testConfig(PredictorKind::Gshare, scheme);

            SyntheticProgram serial =
                makeSpecProgram(id, InputSet::Ref);
            const ExperimentResult regenerated =
                runExperiment(serial, config);

            SyntheticProgram source =
                makeSpecProgram(id, InputSet::Ref);
            const ReplayBuffer buffer = ReplayBuffer::materialize(
                source, std::max(config.profileBranches,
                                 config.evalBranches));
            ReplayBuffer::Cursor profile_stream = buffer.cursor();
            ReplayBuffer::Cursor eval_stream = buffer.cursor();
            const ExperimentResult replayed = runExperimentStreams(
                profile_stream, eval_stream, config);

            expectSameStats(regenerated.stats, replayed.stats);
            EXPECT_EQ(regenerated.hintCount, replayed.hintCount);
        }
    }
}

TEST(RunnerTest, CrossInputFilterIdenticalToRegenerated)
{
    // The stability-filter path reads the eval-input buffer twice
    // (bias profile + evaluation); it must match the serial path too.
    ExperimentConfig config =
        testConfig(PredictorKind::Gshare, StaticScheme::Static95);
    config.profileInput = InputSet::Train;
    config.filterUnstable = true;

    SyntheticProgram serial =
        makeSpecProgram(SpecProgram::Perl, InputSet::Ref);
    const ExperimentResult regenerated =
        runExperiment(serial, config);

    ExperimentRunner runner(threadOptions(1));
    const std::size_t program = runner.addProgram(
        makeSpecProgram(SpecProgram::Perl, InputSet::Ref));
    runner.addCell(program, config);
    const MatrixResult result = runner.run();

    expectSameStats(regenerated.stats,
                    result.cells[0].result.stats);
    EXPECT_EQ(regenerated.hintCount, result.cells[0].result.hintCount);
}

/** The thread-count/cache test matrix: 2 programs x 2 kinds x
 * {none, static_95, static_acc} = 12 cells, 8 with a profiling
 * phase sharing 4 unique profile runs. With @p keyless the cells
 * build their predictor through a makeDynamic factory without a
 * dynamicKey, so no profiling phase can be shared. */
void
addTestMatrix(ExperimentRunner &runner, bool keyless)
{
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind :
             {PredictorKind::Gshare, PredictorKind::Bimodal}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                ExperimentConfig config = testConfig(kind, scheme);
                if (keyless) {
                    config.makeDynamic = [kind] {
                        return makePredictor(kind, 2048);
                    };
                }
                runner.addCell(program, config);
            }
        }
    }
}

MatrixResult
runTestMatrix(unsigned threads)
{
    ExperimentRunner runner(threadOptions(threads));
    addTestMatrix(runner, false);
    return runner.run();
}

TEST(RunnerTest, ResultsIdenticalAtAnyThreadCount)
{
    const MatrixResult one = runTestMatrix(1);
    const MatrixResult two = runTestMatrix(2);
    const MatrixResult eight = runTestMatrix(8);
    EXPECT_EQ(one.threads, 1u);
    EXPECT_EQ(two.threads, 2u);
    EXPECT_EQ(eight.threads, 8u);
    ASSERT_EQ(one.cells.size(), 12u);
    ASSERT_EQ(two.cells.size(), one.cells.size());
    ASSERT_EQ(eight.cells.size(), one.cells.size());

    for (std::size_t i = 0; i < one.cells.size(); ++i) {
        expectSameStats(one.cells[i].result.stats,
                        two.cells[i].result.stats);
        expectSameStats(one.cells[i].result.stats,
                        eight.cells[i].result.stats);
        EXPECT_EQ(one.cells[i].result.hintCount,
                  two.cells[i].result.hintCount);
        EXPECT_EQ(one.cells[i].result.hintCount,
                  eight.cells[i].result.hintCount);
        EXPECT_EQ(one.cells[i].profileCached,
                  two.cells[i].profileCached);
        EXPECT_EQ(one.cells[i].usedKernel, eight.cells[i].usedKernel);
    }

    // Cache accounting is a function of the matrix, not the pool: 4
    // unique (program, kind) profile runs serve the 8 scheme cells.
    for (const MatrixResult *result : {&one, &two, &eight}) {
        EXPECT_EQ(result->profileCacheMisses, 4u);
        EXPECT_EQ(result->profileCacheHits, 4u);
        EXPECT_EQ(result->kernelCells, result->cells.size());
        EXPECT_EQ(result->totalBranches, one.totalBranches);
        EXPECT_EQ(result->actualBranches, one.actualBranches);
        EXPECT_LT(result->actualBranches, result->totalBranches);
    }
}

TEST(RunnerTest, ProfileCacheOffIsBitIdentical)
{
    // Keyless makeDynamic cells stay out of the profile cache: each
    // scheme cell re-runs its own profiling phase, and every cell
    // still equals the oracle and the cached matrix.
    const MatrixResult cached = runTestMatrix(2);
    ExperimentRunner runner(threadOptions(2));
    addTestMatrix(runner, true);
    const MatrixResult uncached = runner.run();
    ASSERT_EQ(cached.cells.size(), uncached.cells.size());

    EXPECT_EQ(uncached.profileCacheHits, 0u);
    EXPECT_EQ(uncached.profileCacheMisses, 0u);
    EXPECT_EQ(uncached.totalBranches, cached.totalBranches);
    // Without sharing, every scheme cell re-runs its own profile.
    EXPECT_EQ(uncached.actualBranches, uncached.totalBranches);

    const std::vector<ExperimentResult> expected =
        oracle::resultsOf(runner);
    for (std::size_t i = 0; i < cached.cells.size(); ++i) {
        ASSERT_TRUE(uncached.cells[i].ok()) << "cell " << i;
        oracle::expectCellMatches(uncached.cells[i], expected[i]);
        oracle::expectCellMatches(cached.cells[i], expected[i]);
        EXPECT_FALSE(uncached.cells[i].profileCached);
        EXPECT_TRUE(uncached.cells[i].usedKernel);
    }
}

TEST(RunnerTest, CellMetadataAndTiming)
{
    ExperimentRunner runner(threadOptions(2));
    const std::size_t program = runner.addProgram(
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
    runner.addCell(program, testConfig(PredictorKind::Gshare,
                                       StaticScheme::Static95));
    const MatrixResult result = runner.run();

    EXPECT_EQ(runner.cell(0).label,
              "compress/gshare:2048/static_95");
    EXPECT_GT(result.cells[0].result.simulatedBranches,
              testEvalBranches);
    EXPECT_GT(result.cells[0].wallSeconds, 0.0);
    EXPECT_GT(result.totalBranches, 0u);
    EXPECT_GT(result.replayBytes, 0u);
    EXPECT_GE(result.wallSeconds, result.runSeconds);
}

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce)
{
    TaskPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    constexpr std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadCountTest, ResolutionOrder)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);

    ASSERT_EQ(setenv("BPSIM_THREADS", "5", 1), 0);
    EXPECT_EQ(resolveThreadCount(0), 5u);
    EXPECT_EQ(resolveThreadCount(2), 2u);
    ASSERT_EQ(unsetenv("BPSIM_THREADS"), 0);

    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(ThreadCountTest, GarbageEnvFallsBackToHardware)
{
    // A bad shell export must degrade (warning + hardware fallback),
    // never kill the run or silently misbehave.
    const unsigned fallback = resolveThreadCount(0);
    for (const char *garbage : {"banana", "-4", "0", "", "8x", "1e3"}) {
        ASSERT_EQ(setenv("BPSIM_THREADS", garbage, 1), 0);
        EXPECT_EQ(resolveThreadCount(0), fallback)
            << "BPSIM_THREADS='" << garbage << "'";
    }
    ASSERT_EQ(unsetenv("BPSIM_THREADS"), 0);
}

TEST(ThreadCountTest, AbsurdValuesAreClamped)
{
    ASSERT_EQ(setenv("BPSIM_THREADS", "100000", 1), 0);
    EXPECT_EQ(resolveThreadCount(0), maxResolvedThreads);
    ASSERT_EQ(unsetenv("BPSIM_THREADS"), 0);

    EXPECT_EQ(resolveThreadCount(maxResolvedThreads + 1),
              maxResolvedThreads);
    EXPECT_EQ(resolveThreadCount(maxResolvedThreads),
              maxResolvedThreads);
}

TEST(ThreadCountTest, ArgsIntegration)
{
    ArgParser args("test");
    addThreadsOption(args);
    const char *argv[] = {"test", "--threads", "7"};
    args.parse(3, const_cast<char **>(argv));
    EXPECT_EQ(threadsFromArgs(args), 7u);
}

} // namespace
} // namespace bpsim
