/**
 * @file
 * Fault-tolerance tests: the injector itself, exception-safe task
 * pools, per-cell isolation and retry policy in the matrix runner,
 * checkpoint/resume bit-identity, and journal bracket invariants in
 * the presence of failures.
 *
 * The FaultInjector is process-wide state, so every test that arms it
 * runs in the FaultTest fixture, whose TearDown disarms — a failing
 * test must not leak an armed injector into its neighbours.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/runner.hh"
#include "obs/run_journal.hh"
#include "support/fault.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

constexpr Count testProfileBranches = 60'000;
constexpr Count testEvalBranches = 120'000;

/** Label of the cell the targeted-fault tests aim at (cell index 1
 * of the test matrix below). */
constexpr const char *targetLabel = "compress/gshare:2048/static_95";
constexpr std::size_t targetIndex = 1;

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

/** One program x 2 kinds x 3 schemes = 6 cells, 2 profile phases. */
void
addTestCells(ExperimentRunner &runner)
{
    const std::size_t program = runner.addProgram(
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
    for (const auto kind :
         {PredictorKind::Gshare, PredictorKind::Bimodal}) {
        for (const auto scheme :
             {StaticScheme::None, StaticScheme::Static95,
              StaticScheme::StaticAcc}) {
            runner.addCell(program, testConfig(kind, scheme));
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
threadOptions(unsigned threads)
{
    RunnerOptions options;
    options.threads = threads;
    return options;
}

/** Fault-free single-thread run all failure tests compare against. */
const MatrixResult &
cleanReference()
{
    static const MatrixResult clean = runMatrix(threadOptions(1));
    return clean;
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

void
expectSameDeterministicFields(const CellResult &a, const CellResult &b)
{
    expectSameStats(a.result.stats, b.result.stats);
    EXPECT_EQ(a.result.hintCount, b.result.hintCount);
    EXPECT_EQ(a.result.simulatedBranches, b.result.simulatedBranches);
    EXPECT_EQ(a.usedKernel, b.usedKernel);
    EXPECT_EQ(a.profileCached, b.profileCached);
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

class FaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(FaultTest, GoodSpecsParse)
{
    FaultInjector &injector = FaultInjector::instance();
    ASSERT_TRUE(injector.armFromSpec("cell:2").ok());
    EXPECT_TRUE(injector.armed());

    ASSERT_TRUE(
        injector.armFromSpec("profile_phase:1:resource_exhausted:3")
            .ok());
    EXPECT_TRUE(injector.armed());
}

TEST_F(FaultTest, BadSpecsAreRejected)
{
    FaultInjector &injector = FaultInjector::instance();
    for (const char *spec :
         {"", "cell", ":1", "cell:0", "cell:abc", "cell:1:bogus_code",
          "cell:1:internal:0", "cell:1:internal:x",
          "cell:1:internal:2:extra"}) {
        const Result<void> armed = injector.armFromSpec(spec);
        ASSERT_FALSE(armed.ok()) << "spec '" << spec << "' parsed";
        EXPECT_EQ(armed.error().code(), ErrorCode::ConfigInvalid)
            << "spec '" << spec << "'";
    }
}

TEST_F(FaultTest, FiresOnConfiguredHitWindow)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.arm("p", 2, ErrorCode::CellFailed, 2);

    EXPECT_NO_THROW(injector.onHit("p", "one"));
    try {
        injector.onHit("p", "two");
        FAIL() << "second hit did not fire";
    } catch (const ErrorException &caught) {
        EXPECT_EQ(caught.error().code(), ErrorCode::CellFailed);
        EXPECT_NE(
            caught.error().message().find("injected fault at p"),
            std::string::npos);
    }
    EXPECT_THROW(injector.onHit("p", "three"), ErrorException);
    EXPECT_NO_THROW(injector.onHit("p", "four")); // window closed
    EXPECT_EQ(injector.hits("p"), 4u);

    // Hits of other points neither count nor fire.
    EXPECT_NO_THROW(injector.onHit("q", "two"));
    EXPECT_EQ(injector.hits("q"), 0u);
}

TEST_F(FaultTest, ContextMatchTargetsOneUnit)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.arm("cell", 1, ErrorCode::Internal, 1, "go/gshare");

    // Non-matching contexts are not even counted as hits, so the
    // targeting is independent of thread interleaving.
    EXPECT_NO_THROW(injector.onHit("cell", "compress/bimodal:2048"));
    EXPECT_EQ(injector.hits("cell"), 0u);

    try {
        injector.onHit("cell", "go/gshare:2048/static_95");
        FAIL() << "matching hit did not fire";
    } catch (const ErrorException &caught) {
        ASSERT_EQ(caught.error().context().size(), 1u);
        EXPECT_EQ(caught.error().context()[0],
                  "go/gshare:2048/static_95");
    }
}

TEST_F(FaultTest, DisarmStopsFiring)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.arm("p", 1);
    injector.disarm();
    EXPECT_FALSE(injector.armed());
    EXPECT_NO_THROW(faultPoint("p", "anything"));
    EXPECT_EQ(injector.hits("p"), 0u);
}

TEST(TaskPoolFaultTest, RunCollectCapturesPerTask)
{
    for (const unsigned threads : {1u, 2u, 8u}) {
        TaskPool pool(threads);
        std::atomic<int> completed{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 16; ++i) {
            tasks.push_back([i, &completed] {
                if (i == 5)
                    throw std::runtime_error("task five failed");
                completed.fetch_add(1, std::memory_order_relaxed);
            });
        }
        const std::vector<std::exception_ptr> errors =
            pool.runCollect(std::move(tasks));

        // The throwing task never terminates the pool: every other
        // task still drains, and only slot 5 holds an exception.
        EXPECT_EQ(completed.load(), 15) << threads << " threads";
        ASSERT_EQ(errors.size(), 16u);
        for (std::size_t i = 0; i < errors.size(); ++i) {
            if (i == 5)
                EXPECT_TRUE(errors[i]) << threads << " threads";
            else
                EXPECT_FALSE(errors[i])
                    << "slot " << i << ", " << threads << " threads";
        }
        EXPECT_THROW(std::rethrow_exception(errors[5]),
                     std::runtime_error);
    }
}

TEST(TaskPoolFaultTest, RunRethrowsFirstFailureByTaskOrder)
{
    for (const unsigned threads : {1u, 2u, 8u}) {
        TaskPool pool(threads);
        std::atomic<int> completed{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 12; ++i) {
            tasks.push_back([i, &completed] {
                if (i == 3)
                    raise(Error(ErrorCode::Internal, "task3"));
                if (i == 7)
                    raise(Error(ErrorCode::Internal, "task7"));
                completed.fetch_add(1, std::memory_order_relaxed);
            });
        }
        try {
            pool.run(std::move(tasks));
            FAIL() << "run() swallowed the failures";
        } catch (const ErrorException &caught) {
            // First by task index — deterministic at any thread
            // count even when task 7 fails first on the clock.
            EXPECT_EQ(caught.error().message(), "task3")
                << threads << " threads";
        }
        EXPECT_EQ(completed.load(), 10) << threads << " threads";
    }
}

TEST_F(FaultTest, CellFaultIsIsolatedToItsCell)
{
    // Build the fault-free reference before arming the injector.
    const MatrixResult &clean = cleanReference();
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::CellFailed, 1,
                                  targetLabel);
    const MatrixResult result = runMatrix(threadOptions(2));

    EXPECT_EQ(result.failedCells, 1u);
    ASSERT_EQ(result.cells.size(), clean.cells.size());

    const CellResult &failed = result.cells[targetIndex];
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->code(), ErrorCode::CellFailed);
    EXPECT_NE(failed.error->message().find("injected fault at cell"),
              std::string::npos);
    EXPECT_EQ(failed.attempts, 1u);

    // Every other cell is untouched — bit-identical to a clean run.
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        if (i == targetIndex)
            continue;
        ASSERT_TRUE(result.cells[i].ok()) << "cell " << i;
        expectSameDeterministicFields(result.cells[i],
                                      clean.cells[i]);
    }
}

TEST_F(FaultTest, TransientFaultRetriesAndSucceeds)
{
    const MatrixResult &clean = cleanReference();
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::ResourceExhausted, 1,
                                  targetLabel);
    RunnerOptions options;
    options.threads = 2;
    options.retries = 1;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, 0u);
    ASSERT_TRUE(result.cells[targetIndex].ok());
    EXPECT_EQ(result.cells[targetIndex].attempts, 2u);

    // The retried cell's result is bit-identical to a clean run:
    // the retry re-simulates from the same immutable buffers.
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        expectSameDeterministicFields(result.cells[i],
                                      clean.cells[i]);
}

TEST_F(FaultTest, ExhaustedRetriesReportTheTransientError)
{
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::ResourceExhausted, 3,
                                  targetLabel);
    RunnerOptions options;
    options.threads = 2;
    options.retries = 1;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, 1u);
    const CellResult &failed = result.cells[targetIndex];
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(failed.attempts, 2u); // initial try + 1 retry
}

TEST_F(FaultTest, NonTransientFailuresNeverRetry)
{
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::Internal, 1,
                                  targetLabel);
    RunnerOptions options;
    options.threads = 2;
    options.retries = 3;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, 1u);
    const CellResult &failed = result.cells[targetIndex];
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->code(), ErrorCode::Internal);
    EXPECT_EQ(failed.attempts, 1u);
}

TEST_F(FaultTest, ProfilePhaseFailureFailsItsConsumersOnly)
{
    // One thread: the gshare profile phase (phase 0, consumed by
    // cells 1 and 2) executes first, so nth=1 targets it exactly.
    FaultInjector::instance().arm(fault_points::profilePhase, 1,
                                  ErrorCode::Internal, 1);
    const MatrixResult result = runMatrix(threadOptions(1));

    EXPECT_EQ(result.failedCells, 2u);
    for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
        ASSERT_FALSE(result.cells[i].ok()) << "cell " << i;
        EXPECT_EQ(result.cells[i].error->code(),
                  ErrorCode::CellFailed);
        EXPECT_NE(result.cells[i].error->message().find(
                      "shared profiling phase failed"),
                  std::string::npos);
    }
    for (const std::size_t i :
         {std::size_t{0}, std::size_t{3}, std::size_t{4},
          std::size_t{5}})
        EXPECT_TRUE(result.cells[i].ok()) << "cell " << i;
}

/** Label of cell 0, the gshare none cell: the unhinted twin that
 * carries the gshare profiling phase (cell 3 carries bimodal's). */
constexpr const char *carrierLabel = "compress/gshare:2048/none";

/** Cells named by the journal's profile_phase carrier fields, in
 * index order (workers journal them in any order). */
std::vector<Count>
carriersOf(const obs::RunJournal &journal)
{
    std::vector<Count> carriers;
    for (const obs::Event &event : journal.events()) {
        if (event.kind == obs::EventKind::ProfilePhase &&
            event.find("carrier") != nullptr)
            carriers.push_back(event.u64("carrier"));
    }
    std::sort(carriers.begin(), carriers.end());
    return carriers;
}

TEST_F(FaultTest, CarrierFaultFailsOnlyTheCarrier)
{
    // The carrier takes its cell fault in the profile stage; its phase
    // runs alone, so the phase's scheme cells still succeed.
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::Internal, 1, carrierLabel);
    obs::RunJournal journal("carrier fault");
    RunnerOptions options = threadOptions(2);
    options.journal = &journal;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, 1u);
    ASSERT_FALSE(result.cells[0].ok());
    EXPECT_EQ(result.cells[0].error->code(), ErrorCode::Internal);
    EXPECT_NE(result.cells[0].error->message().find("injected fault"),
              std::string::npos);
    EXPECT_EQ(result.cells[0].attempts, 1u);
    const MatrixResult &clean = cleanReference();
    for (std::size_t i = 1; i < result.cells.size(); ++i) {
        ASSERT_TRUE(result.cells[i].ok()) << "cell " << i;
        expectSameDeterministicFields(result.cells[i], clean.cells[i]);
    }
    EXPECT_EQ(carriersOf(journal), std::vector<Count>{3});
    const obs::JournalSummary summary = journal.summary();
    EXPECT_EQ(summary.cellsBegun, summary.cellsEnded + summary.cellsFailed);
    EXPECT_TRUE(summary.phasesBalanced);
}

TEST_F(FaultTest, TransientCarrierFaultRetriesAndStillCarries)
{
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::ResourceExhausted, 1,
                                  carrierLabel);
    obs::RunJournal journal("carrier retry");
    RunnerOptions options = threadOptions(2);
    options.retries = 1;
    options.journal = &journal;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, 0u);
    EXPECT_EQ(result.cells[0].attempts, 2u);
    EXPECT_EQ(carriersOf(journal), (std::vector<Count>{0, 3}));
    const MatrixResult &clean = cleanReference();
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        expectSameDeterministicFields(result.cells[i], clean.cells[i]);
}

TEST_F(FaultTest, PhaseFaultLeavesItsTwinToTheCellsStage)
{
    // A phase that fails its fault point gets no carrier: its scheme
    // cells fail, and its none twin runs in the cells stage instead.
    FaultInjector::instance().arm(fault_points::profilePhase, 1,
                                  ErrorCode::Internal, 1);
    obs::RunJournal journal("phase fault");
    RunnerOptions options = threadOptions(1);
    options.journal = &journal;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, 2u);
    EXPECT_FALSE(result.cells[1].ok());
    EXPECT_FALSE(result.cells[2].ok());
    ASSERT_TRUE(result.cells[0].ok());
    expectSameDeterministicFields(result.cells[0],
                                  cleanReference().cells[0]);
    EXPECT_EQ(carriersOf(journal), std::vector<Count>{3});
    bool ran_in_cells_stage = false;
    for (const obs::Event &event : journal.events()) {
        if (event.kind != obs::EventKind::FusedGroup ||
            event.find("phase")->strValue() != "cells")
            continue;
        const std::string members =
            "," + event.find("cells")->strValue() + ",";
        ran_in_cells_stage =
            ran_in_cells_stage || members.find(",0,") != std::string::npos;
    }
    EXPECT_TRUE(ran_in_cells_stage);
}

TEST_F(FaultTest, MaterializeFailureAbortsTheRun)
{
    // Nothing can proceed without replay buffers: run() itself
    // throws instead of failing every cell individually.
    FaultInjector::instance().arm(fault_points::materialize, 1,
                                  ErrorCode::IoFailure, 1);
    obs::RunJournal journal("materialize fault");
    RunnerOptions options = threadOptions(1);
    options.journal = &journal;
    ExperimentRunner runner(options);
    addTestCells(runner);
    EXPECT_THROW(runner.run(), ErrorException);

    // The run and materialize spans close on the throw, so the
    // journal still balances and ends with run_end.
    const std::vector<obs::Event> events = journal.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].kind, obs::EventKind::RunBegin);
    EXPECT_EQ(events[1].kind, obs::EventKind::PhaseBegin);
    EXPECT_EQ(events[1].label, "materialize");
    EXPECT_EQ(events[2].kind, obs::EventKind::PhaseEnd);
    EXPECT_EQ(events[2].label, "materialize");
    EXPECT_EQ(events[3].kind, obs::EventKind::RunEnd);
    EXPECT_TRUE(journal.summary().phasesBalanced);
}

TEST_F(FaultTest, FailFastSkipsCellsNotYetStarted)
{
    // One thread executes cells in index order: cell 0 takes the
    // injected fault and every later cell is skipped unrun.
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::Internal, 1);
    RunnerOptions options;
    options.threads = 1;
    options.failFast = true;
    const MatrixResult result = runMatrix(options);

    EXPECT_EQ(result.failedCells, result.cells.size());
    ASSERT_FALSE(result.cells[0].ok());
    EXPECT_NE(
        result.cells[0].error->message().find("injected fault"),
        std::string::npos);
    for (std::size_t i = 1; i < result.cells.size(); ++i) {
        ASSERT_FALSE(result.cells[i].ok()) << "cell " << i;
        EXPECT_EQ(result.cells[i].error->message(),
                  "skipped: fail-fast after an earlier failure");
        EXPECT_EQ(result.cells[i].attempts, 0u);
    }
}

TEST_F(FaultTest, JournalBracketsBalanceWithFailures)
{
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::Internal, 1,
                                  targetLabel);
    obs::RunJournal journal("fault test");
    RunnerOptions options;
    options.threads = 2;
    options.journal = &journal;
    const MatrixResult result = runMatrix(options);
    EXPECT_EQ(result.failedCells, 1u);

    const obs::JournalSummary summary = journal.summary();
    EXPECT_EQ(summary.cellsBegun, result.cells.size());
    EXPECT_EQ(summary.cellsFailed, 1u);
    // The bracket invariant survives failures: every cell_begin is
    // closed by exactly one cell_end or cell_error.
    EXPECT_EQ(summary.cellsBegun,
              summary.cellsEnded + summary.cellsFailed);
    EXPECT_TRUE(summary.phasesBalanced);
    EXPECT_EQ(summary.cellsRestored, 0u);
}

TEST(CheckpointResumeTest, ResumeIsBitIdenticalAtAnyThreadCount)
{
    const std::string path = tempPath("resume_identity.jsonl");
    std::remove(path.c_str());

    RunnerOptions record;
    record.threads = 2;
    record.checkpointPath = path;
    const MatrixResult original = runMatrix(record);
    EXPECT_EQ(original.failedCells, 0u);
    EXPECT_EQ(original.restoredCells, 0u);

    for (const unsigned threads : {1u, 2u, 4u}) {
        obs::RunJournal journal("resume");
        RunnerOptions resume;
        resume.threads = threads;
        resume.checkpointPath = path;
        resume.resume = true;
        resume.journal = &journal;
        const MatrixResult resumed = runMatrix(resume);

        EXPECT_EQ(resumed.failedCells, 0u) << threads << " threads";
        EXPECT_EQ(resumed.restoredCells, resumed.cells.size());
        ASSERT_EQ(resumed.cells.size(), original.cells.size());
        for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
            EXPECT_TRUE(resumed.cells[i].restored) << "cell " << i;
            EXPECT_EQ(resumed.cells[i].attempts, 0u);
            expectSameDeterministicFields(resumed.cells[i],
                                          original.cells[i]);
        }
        // Matrix accounting is deterministic too, including the
        // branch totals of profile phases that never re-ran.
        EXPECT_EQ(resumed.totalBranches, original.totalBranches);
        EXPECT_EQ(resumed.actualBranches, original.actualBranches);

        const obs::JournalSummary summary = journal.summary();
        EXPECT_EQ(summary.cellsRestored, resumed.cells.size());
        EXPECT_EQ(summary.cellsBegun,
                  summary.cellsEnded + summary.cellsFailed);
        EXPECT_TRUE(summary.phasesBalanced);
    }
    std::remove(path.c_str());
}

TEST_F(FaultTest, FailedCellIsNotCheckpointedAndRerunsOnResume)
{
    const std::string path = tempPath("resume_after_fault.jsonl");
    std::remove(path.c_str());

    const MatrixResult &clean = cleanReference();
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::Internal, 1,
                                  targetLabel);
    RunnerOptions record;
    record.threads = 2;
    record.checkpointPath = path;
    const MatrixResult broken = runMatrix(record);
    EXPECT_EQ(broken.failedCells, 1u);

    {
        SweepCheckpoint checkpoint(path);
        ASSERT_TRUE(checkpoint.load().ok());
        EXPECT_EQ(checkpoint.size(), broken.cells.size() - 1);
    }

    // Resume with the fault gone: only the failed cell re-executes,
    // and the merged result matches a clean run everywhere.
    FaultInjector::instance().disarm();
    RunnerOptions resume;
    resume.threads = 2;
    resume.checkpointPath = path;
    resume.resume = true;
    const MatrixResult repaired = runMatrix(resume);

    EXPECT_EQ(repaired.failedCells, 0u);
    EXPECT_EQ(repaired.restoredCells, repaired.cells.size() - 1);
    EXPECT_FALSE(repaired.cells[targetIndex].restored);
    EXPECT_EQ(repaired.cells[targetIndex].attempts, 1u);
    for (std::size_t i = 0; i < repaired.cells.size(); ++i)
        expectSameDeterministicFields(repaired.cells[i],
                                      clean.cells[i]);
    EXPECT_EQ(repaired.totalBranches, clean.totalBranches);
    EXPECT_EQ(repaired.actualBranches, clean.actualBranches);
    std::remove(path.c_str());
}

TEST_F(FaultTest, CheckpointWriteFaultWarnsButSweepCompletes)
{
    const std::string path = tempPath("checkpoint_write_fault.jsonl");
    std::remove(path.c_str());

    FaultInjector::instance().arm(fault_points::checkpointWrite, 1,
                                  ErrorCode::IoFailure, 1,
                                  targetLabel);
    RunnerOptions options;
    options.threads = 2;
    options.checkpointPath = path;
    const MatrixResult result = runMatrix(options);

    // Durability degraded, correctness intact: no cell failed, and
    // only the faulted cell is missing from the checkpoint.
    EXPECT_EQ(result.failedCells, 0u);
    for (const CellResult &cell : result.cells)
        EXPECT_TRUE(cell.ok());

    SweepCheckpoint checkpoint(path);
    ASSERT_TRUE(checkpoint.load().ok());
    EXPECT_EQ(checkpoint.size(), result.cells.size() - 1);
    std::remove(path.c_str());
}

} // namespace
} // namespace bpsim
