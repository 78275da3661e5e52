/**
 * @file
 * Tests for the replay buffer and the parallel experiment-matrix
 * runner: replayed streams must be byte-identical to regenerated
 * ones, and matrix results must not depend on the thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "core/runner.hh"
#include "obs/run_journal.hh"
#include "oracle.hh"
#include "predictor/two_bc_gskew.hh"
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
    // The runner over replay buffers must produce byte-identical
    // SimStats to the oracle over the live, regenerating program, for
    // every SPEC program, with a profiling phase (Static95 exercises
    // selection) and for the dynamic baseline.
    ExperimentRunner runner(threadOptions(2));
    std::vector<ExperimentResult> regenerated;
    for (const auto id : allSpecPrograms()) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto scheme :
             {StaticScheme::None, StaticScheme::Static95}) {
            const ExperimentConfig config =
                testConfig(PredictorKind::Gshare, scheme);
            runner.addCell(program, config);
            SyntheticProgram serial = makeSpecProgram(id, InputSet::Ref);
            regenerated.push_back(
                runExperimentStreams(serial, serial, config));
        }
    }
    const MatrixResult replayed = runner.run();
    oracle::expectMatrixMatches(replayed, regenerated);
}

TEST(RunnerTest, CrossInputFilterIdenticalToRegenerated)
{
    // The stability-filter path reads the eval-input buffer twice
    // (bias profile + evaluation); it must match the oracle over the
    // live train and ref programs too.
    ExperimentConfig config =
        testConfig(PredictorKind::Gshare, StaticScheme::Static95);
    config.profileInput = InputSet::Train;
    config.filterUnstable = true;

    SyntheticProgram train =
        makeSpecProgram(SpecProgram::Perl, InputSet::Train);
    SyntheticProgram ref = makeSpecProgram(SpecProgram::Perl, InputSet::Ref);
    const ExperimentResult regenerated =
        runExperimentStreams(train, ref, config);

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
 * phase sharing 4 unique profile runs. */
void
addTestMatrix(ExperimentRunner &runner)
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
runTestMatrix(unsigned threads)
{
    ExperimentRunner runner(threadOptions(threads));
    addTestMatrix(runner);
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

/** 2bcgskew at 8 KB with explicit history lengths (empty = the
 * predictor's defaults). */
ExperimentConfig
historyConfig(StaticScheme scheme, std::vector<BitCount> lengths)
{
    ExperimentConfig config =
        testConfig(PredictorKind::TwoBcGskew, scheme);
    config.sizeBytes = 8192;
    config.historyLengths = std::move(lengths);
    return config;
}

/** gcc with 2bcgskew none and static_95 cells, with lengths {3, 8, 6}
 * and with the defaults, ordered so that a carrier chosen without the
 * lengths would ride the wrong phase. */
void
addHistoryMatrix(ExperimentRunner &runner)
{
    const std::size_t program =
        runner.addProgram(makeSpecProgram(SpecProgram::Gcc, InputSet::Ref));
    runner.addCell(program, historyConfig(StaticScheme::None, {}));
    runner.addCell(program, historyConfig(StaticScheme::None, {3, 8, 6}));
    runner.addCell(program,
                   historyConfig(StaticScheme::Static95, {3, 8, 6}));
    runner.addCell(program, historyConfig(StaticScheme::Static95, {}));
}

TEST(RunnerTest, HistoryLengthCellMatchesDirectConstruction)
{
    obs::RunJournal journal("history lengths");
    RunnerOptions options = threadOptions(2);
    options.journal = &journal;
    ExperimentRunner runner(options);
    addHistoryMatrix(runner);
    const MatrixResult result = runner.run();
    oracle::expectMatrixMatches(result, oracle::resultsOf(runner));
    EXPECT_EQ(runner.cell(0).label, "gcc/2bcgskew:8192/none");
    EXPECT_EQ(runner.cell(1).label, "gcc/2bcgskew:8192:h3,8,6/none");

    // The cell's predictor is the one built by hand.
    TwoBcGskew direct(8192, 3, 8, 6);
    SimOptions sim_options;
    sim_options.maxBranches = testEvalBranches;
    ReplayBuffer::Cursor stream =
        runner.buffer(0, InputSet::Ref).cursor();
    expectSameStats(result.cells[1].result.stats,
                    simulate(direct, stream, sim_options));
    EXPECT_NE(result.cells[0].result.stats.mispredictions,
              result.cells[1].result.stats.mispredictions);

    // The lengths join the profile-cache key (two phases, no sharing)
    // and the carrier identity: phase 0 (the lengths, from cell 2)
    // rides in cell 1, phase 1 (the defaults) in cell 0.
    EXPECT_EQ(result.profileCacheMisses, 2u);
    EXPECT_EQ(result.profileCacheHits, 0u);
    std::vector<std::pair<Count, Count>> carriers;
    for (const obs::Event &event : journal.events()) {
        if (event.kind == obs::EventKind::ProfilePhase)
            carriers.emplace_back(event.u64("phase"),
                                  event.u64("carrier"));
    }
    std::sort(carriers.begin(), carriers.end());
    EXPECT_EQ(carriers,
              (std::vector<std::pair<Count, Count>>{{0, 1}, {1, 0}}));
}

TEST(RunnerTest, HistoryLengthCellsSurviveCheckpointAndResume)
{
    const std::string path = ::testing::TempDir() + "history_resume.jsonl";
    std::remove(path.c_str());
    RunnerOptions first = threadOptions(2);
    first.checkpointPath = path;
    ExperimentRunner writer(first);
    addHistoryMatrix(writer);
    const MatrixResult written = writer.run();
    ASSERT_EQ(written.failedCells, 0u);

    RunnerOptions resume = threadOptions(2);
    resume.checkpointPath = path;
    resume.resume = true;
    ExperimentRunner reader(resume);
    addHistoryMatrix(reader);
    const MatrixResult resumed = reader.run();
    EXPECT_EQ(resumed.restoredCells, resumed.cells.size());
    for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_TRUE(resumed.cells[i].restored);
        oracle::expectCellMatches(resumed.cells[i],
                                  written.cells[i].result);
    }
    std::remove(path.c_str());
}

/** A run of the carrier matrix, its journal's carriers and the
 * oracle of each cell. */
struct CarrierRun
{
    MatrixResult result;
    std::vector<ExperimentResult> oracle;

    /** Cells named by a profile_phase's carrier field, in event
     * order. */
    std::vector<Count> carriers;
};

/**
 * gcc with a gshare none, static_95 and static_acc cell: one profiling
 * phase, whose unhinted twin is the none cell. @p tweak_none edits the
 * none cell's config, so a test can break one carrier condition.
 */
CarrierRun
runCarrierMatrix(RunnerOptions options,
                 const std::function<void(ExperimentConfig &)> &tweak_none =
                     [](ExperimentConfig &) {})
{
    obs::RunJournal journal("carriers");
    options.journal = &journal;
    ExperimentRunner runner(options);
    const std::size_t program =
        runner.addProgram(makeSpecProgram(SpecProgram::Gcc, InputSet::Ref));
    for (const auto scheme :
         {StaticScheme::None, StaticScheme::Static95,
          StaticScheme::StaticAcc}) {
        ExperimentConfig config = testConfig(PredictorKind::Gshare, scheme);
        if (scheme == StaticScheme::None)
            tweak_none(config);
        runner.addCell(program, config);
    }
    CarrierRun run;
    run.result = runner.run();
    run.oracle = oracle::resultsOf(runner);
    for (const obs::Event &event : journal.events()) {
        if (event.kind == obs::EventKind::ProfilePhase &&
            event.find("carrier") != nullptr)
            run.carriers.push_back(event.u64("carrier"));
    }
    return run;
}

TEST(CarrierTest, TheNoneTwinCarriesItsPhase)
{
    for (const unsigned threads : {1u, 2u}) {
        const CarrierRun run = runCarrierMatrix(threadOptions(threads));
        oracle::expectMatrixMatches(run.result, run.oracle);
        EXPECT_EQ(run.carriers, std::vector<Count>{0});
        EXPECT_FALSE(run.result.cells[0].profileCached);
        EXPECT_GT(run.result.cells[0].wallSeconds, 0.0);
        EXPECT_GT(run.result.profileSeconds, 0.0);
        // The carried phase still counts once in the work done.
        EXPECT_EQ(run.result.profileCacheMisses, 1u);
        EXPECT_EQ(run.result.profileCacheHits, 1u);
        EXPECT_EQ(run.result.actualBranches,
                  run.result.totalBranches - testProfileBranches);
    }
}

TEST(CarrierTest, EachBrokenConditionLeavesThePhaseUncarried)
{
    const std::vector<
        std::pair<const char *, std::function<void(ExperimentConfig &)>>>
        breaks = {
            {"warmup",
             [](ExperimentConfig &c) { c.evalWarmupBranches = 5'000; }},
            {"short window",
             [](ExperimentConfig &c) {
                 c.evalBranches = testProfileBranches - 1;
             }},
            {"cross-input",
             [](ExperimentConfig &c) { c.evalInput = InputSet::Train; }},
            {"other size", [](ExperimentConfig &c) { c.sizeBytes = 4096; }}};
    for (const auto &[name, tweak] : breaks) {
        SCOPED_TRACE(name);
        const CarrierRun run = runCarrierMatrix(threadOptions(2), tweak);
        oracle::expectMatrixMatches(run.result, run.oracle);
        EXPECT_TRUE(run.carriers.empty());
    }
}

TEST(CarrierTest, OneTwinCarriesOnePhase)
{
    // Two phases differing only in profileBranches share one twin; it
    // carries the first, and the second runs alone.
    obs::RunJournal journal("one twin");
    RunnerOptions options = threadOptions(1);
    options.journal = &journal;
    ExperimentRunner runner(options);
    const std::size_t program =
        runner.addProgram(makeSpecProgram(SpecProgram::Gcc, InputSet::Ref));
    runner.addCell(program,
                   testConfig(PredictorKind::Gshare, StaticScheme::None));
    for (const Count profile : {testProfileBranches, Count{30'001}}) {
        ExperimentConfig config =
            testConfig(PredictorKind::Gshare, StaticScheme::Static95);
        config.profileBranches = profile;
        runner.addCell(program, config);
    }
    const MatrixResult result = runner.run();
    oracle::expectMatrixMatches(result, oracle::resultsOf(runner));
    std::vector<Count> carriers;
    Count phases = 0;
    for (const obs::Event &event : journal.events()) {
        if (event.kind != obs::EventKind::ProfilePhase)
            continue;
        ++phases;
        if (event.find("carrier") != nullptr)
            carriers.push_back(event.u64("carrier"));
    }
    EXPECT_EQ(phases, 2u);
    EXPECT_EQ(carriers, std::vector<Count>{0});
}

TEST(CarrierTest, OnlyAKernelPredictorCarriesItsPhase)
{
    // simulate() keeps no prefix profile, so yags' phase runs alone
    // while gshare's none cell carries gshare's.
    obs::RunJournal journal("kernel carriers");
    RunnerOptions options = threadOptions(2);
    options.journal = &journal;
    ExperimentRunner runner(options);
    const std::size_t program =
        runner.addProgram(makeSpecProgram(SpecProgram::Gcc, InputSet::Ref));
    for (const char *predictor : {"yags", "gshare"}) {
        for (const auto scheme :
             {StaticScheme::None, StaticScheme::StaticAcc}) {
            ExperimentConfig config =
                testConfig(PredictorKind::Gshare, scheme);
            config.predictor = predictor;
            runner.addCell(program, config);
        }
    }
    const MatrixResult result = runner.run();
    oracle::expectMatrixMatches(result, oracle::resultsOf(runner));
    EXPECT_FALSE(result.cells[0].usedKernel);
    EXPECT_TRUE(result.cells[2].usedKernel);

    std::vector<Count> carriers;
    std::vector<bool> uncarried_kernel;
    for (const obs::Event &event : journal.events()) {
        if (event.kind != obs::EventKind::ProfilePhase)
            continue;
        if (event.find("carrier") != nullptr)
            carriers.push_back(event.u64("carrier"));
        else
            uncarried_kernel.push_back(event.boolean("kernel"));
    }
    EXPECT_EQ(carriers, std::vector<Count>{2});
    EXPECT_EQ(uncarried_kernel, std::vector<bool>{false});
}

TEST(CarrierTest, WarmCacheRunsNoCarrierAndMatchesTheColdRun)
{
    const std::string dir = ::testing::TempDir() + "carrier_cache";
    std::filesystem::remove_all(dir);
    RunnerOptions options = threadOptions(2);
    options.cacheDir = dir;
    const CarrierRun cold = runCarrierMatrix(options);
    const CarrierRun warm = runCarrierMatrix(options);
    EXPECT_EQ(cold.carriers, std::vector<Count>{0});
    EXPECT_TRUE(warm.carriers.empty());
    EXPECT_EQ(warm.result.cacheProfileHits, 1u);
    oracle::expectMatrixMatches(cold.result, cold.oracle);
    oracle::expectMatrixMatches(warm.result, cold.oracle);
    EXPECT_EQ(warm.result.actualBranches, cold.result.actualBranches);
    EXPECT_EQ(warm.result.totalBranches, cold.result.totalBranches);
    std::filesystem::remove_all(dir);
}

TEST(CarrierTest, ResumeAfterTheProfileStageMatchesTheOracle)
{
    // Cancel the sweep once its first cell settles: in one thread that
    // is the carrier, so the checkpoint holds only what the profile
    // stage ran. Resuming restores the carrier; its phase then runs
    // alone, without a twin to carry it.
    const std::string path = ::testing::TempDir() + "carrier_resume.jsonl";
    std::remove(path.c_str());
    std::atomic<bool> cancelled{false};
    RunnerOptions first = threadOptions(1);
    first.checkpointPath = path;
    first.cancel = [&cancelled] { return cancelled.load(); };
    first.onCellFinished = [&cancelled](std::size_t, const CellResult &) {
        cancelled.store(true);
    };
    const CarrierRun interrupted = runCarrierMatrix(first);
    EXPECT_EQ(interrupted.carriers, std::vector<Count>{0});
    ASSERT_TRUE(interrupted.result.cells[0].ok());
    EXPECT_EQ(interrupted.result.failedCells, 2u);

    RunnerOptions resume = threadOptions(2);
    resume.checkpointPath = path;
    resume.resume = true;
    const CarrierRun resumed = runCarrierMatrix(resume);
    EXPECT_EQ(resumed.result.restoredCells, 1u);
    EXPECT_TRUE(resumed.result.cells[0].restored);
    EXPECT_TRUE(resumed.carriers.empty());
    oracle::expectMatrixMatches(resumed.result, resumed.oracle);
    const CarrierRun clean = runCarrierMatrix(threadOptions(1));
    EXPECT_EQ(resumed.result.actualBranches, clean.result.actualBranches);
    EXPECT_EQ(resumed.result.totalBranches, clean.result.totalBranches);
    std::remove(path.c_str());
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
