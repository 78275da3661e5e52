/**
 * @file
 * Property-based suites, parameterized over predictor kinds and
 * sizes. Each property is an invariant every configuration must hold:
 * budget accounting, collision bookkeeping consistency, determinism,
 * a biased-stream accuracy floor, the benefit ordering between table
 * sizes on an aliased workload, and the run journal's aggregation
 * invariants.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/engine.hh"
#include "core/runner.hh"
#include "obs/run_journal.hh"
#include "support/bits.hh"
#include "core/experiment.hh"
#include "predictor/factory.hh"
#include "support/random.hh"
#include "trace/memory_trace.hh"
#include "workload/specint.hh"
#include "workload/synthetic_program.hh"

namespace bpsim
{
namespace
{

using KindSize = std::tuple<PredictorKind, std::size_t>;

class PredictorProperty : public ::testing::TestWithParam<KindSize>
{
  protected:
    PredictorKind kind() const { return std::get<0>(GetParam()); }
    std::size_t bytes() const { return std::get<1>(GetParam()); }

    std::unique_ptr<BranchPredictor>
    make() const
    {
        return makePredictor(kind(), bytes());
    }
};

TEST_P(PredictorProperty, SizeAccountingMatchesBudget)
{
    EXPECT_EQ(make()->sizeBytes(), bytes());
}

TEST_P(PredictorProperty, BiasedStreamAccuracyFloor)
{
    // 200 branches visited round-robin (as a program loop would),
    // each 98% biased in a fixed direction: every predictor at every
    // size must clear 90% accuracy. Round-robin order matters: it
    // gives the global history its position-identifying power; on a
    // randomly ordered stream the pure-history schemes legitimately
    // collapse to the marginal taken rate.
    auto predictor = make();
    Rng rng(kind() == PredictorKind::Bimodal ? 1 : 2);
    Count correct = 0;
    const Count total = 60000;
    for (Count i = 0; i < total; ++i) {
        const unsigned b = static_cast<unsigned>(i % 200);
        const Addr pc = 0x1000 + 4 * b;
        const bool majority = (mix64(b) & 1) != 0;
        const bool taken = rng.chance(0.98) ? majority : !majority;
        correct += predictor->predict(pc) == taken;
        predictor->update(pc, taken);
        predictor->updateHistory(taken);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.90)
        << predictorKindName(kind()) << " at " << bytes();
}

TEST_P(PredictorProperty, CollisionBookkeepingConsistent)
{
    auto predictor = make();
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.nextBelow(5000);
        const bool taken = rng.chance(0.5);
        predictor->predict(pc);
        predictor->update(pc, taken);
        predictor->updateHistory(taken);
    }
    const CollisionStats stats = predictor->collisionStats();
    EXPECT_GT(stats.lookups, 0u);
    EXPECT_LE(stats.collisions, stats.lookups);
    // Every collision was classified exactly once.
    EXPECT_EQ(stats.constructive + stats.destructive,
              stats.collisions);
}

TEST_P(PredictorProperty, ClearCollisionStatsKeepsTables)
{
    auto predictor = make();
    for (int i = 0; i < 500; ++i) {
        predictor->predict(0x100);
        predictor->update(0x100, true);
        predictor->updateHistory(true);
    }
    const bool prediction = predictor->predict(0x100);
    predictor->clearCollisionStats();
    EXPECT_EQ(predictor->collisionStats().lookups, 0u);
    EXPECT_EQ(predictor->predict(0x100), prediction);
}

TEST_P(PredictorProperty, EngineRunsAreReproducible)
{
    ProgramConfig config;
    config.name = "prop";
    config.staticBranches = 300;
    config.seed = 1234;
    SyntheticProgram program = buildProgram(config);

    auto a = make();
    SimOptions options;
    options.maxBranches = 50000;
    const SimStats first = simulate(*a, program, options);
    auto b = make();
    const SimStats second = simulate(*b, program, options);
    EXPECT_EQ(first.mispredictions, second.mispredictions);
    EXPECT_EQ(first.instructions, second.instructions);
    EXPECT_EQ(first.collisions.collisions,
              second.collisions.collisions);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, PredictorProperty,
    ::testing::Combine(::testing::ValuesIn(allPredictorKinds()),
                       ::testing::Values(std::size_t{2048},
                                         std::size_t{8192},
                                         std::size_t{32768})),
    [](const ::testing::TestParamInfo<KindSize> &info) {
        return predictorKindName(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param));
    });

class SchemeProperty
    : public ::testing::TestWithParam<StaticScheme>
{
};

TEST_P(SchemeProperty, HintsOnlyCoverProfiledBranches)
{
    ProgramConfig config;
    config.name = "prop";
    config.staticBranches = 500;
    config.seed = 77;
    SyntheticProgram program = buildProgram(config);

    auto predictor = makePredictor(PredictorKind::Gshare, 4096);
    ProfileDb profile;
    SimOptions options;
    options.maxBranches = 100000;
    options.profile = &profile;
    simulate(*predictor, program, options);

    const HintDb hints = selectStatic(GetParam(), profile);
    for (const auto &[pc, taken] : hints.entries()) {
        const BranchProfile *record = profile.find(pc);
        ASSERT_NE(record, nullptr);
        // The hint must be the profiled majority direction.
        EXPECT_EQ(taken, record->majorityTaken());
        // And the branch must satisfy its scheme's criterion.
        if (GetParam() == StaticScheme::Static95) {
            EXPECT_GT(record->bias(), 0.95);
        }
        if (GetParam() == StaticScheme::StaticAcc) {
            EXPECT_GT(record->bias(), record->accuracy());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeProperty,
    ::testing::Values(StaticScheme::Static95, StaticScheme::StaticAcc,
                      StaticScheme::StaticFac),
    [](const ::testing::TestParamInfo<StaticScheme> &info) {
        return staticSchemeName(info.param);
    });

/**
 * Run the test_runner-style 12-cell matrix (2 programs x 2 kinds x 3
 * schemes, 60k/120k branch phases) on @p threads workers with a
 * journal attached, filling @p journal for invariant checks (the
 * journal owns a mutex, so it cannot be returned by value).
 */
void
runJournaledMatrix(unsigned threads, obs::RunJournal &journal)
{
    RunnerOptions options;
    options.threads = threads;
    options.journal = &journal;
    ExperimentRunner runner(options);
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind :
             {PredictorKind::Gshare, PredictorKind::Bimodal}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                ExperimentConfig config;
                config.kind = kind;
                config.sizeBytes = 2048;
                config.scheme = scheme;
                config.profileBranches = 60'000;
                config.evalBranches = 120'000;
                runner.addCell(program, config);
            }
        }
    }
    runner.run();
}

TEST(JournalProperty, EventCountsSumAcrossKindsAndThreads)
{
    obs::RunJournal journal("property-matrix");
    runJournaledMatrix(4, journal);
    const obs::JournalSummary summary = journal.summary();

    EXPECT_EQ(summary.totalEvents, journal.eventCount());
    Count by_kind = 0;
    for (const auto &[kind, count] : summary.eventsByKind)
        by_kind += count;
    EXPECT_EQ(by_kind, summary.totalEvents);
    Count by_thread = 0;
    for (const auto &[thread, count] : summary.eventsByThread) {
        EXPECT_LT(thread, 4u);
        by_thread += count;
    }
    EXPECT_EQ(by_thread, summary.totalEvents);
}

TEST(JournalProperty, CellAndPhaseBracketsBalance)
{
    obs::RunJournal journal("property-matrix");
    runJournaledMatrix(4, journal);
    const obs::JournalSummary summary = journal.summary();

    EXPECT_EQ(summary.cellsBegun, 12u);
    EXPECT_EQ(summary.cellsEnded, summary.cellsBegun);
    EXPECT_TRUE(summary.phasesBalanced);
    EXPECT_EQ(summary.phaseBegins, summary.phaseEnds);
    // Every scoped phase timer was stopped before run() returned.
    EXPECT_EQ(journal.timers().openCount(), 0u);

    const std::vector<obs::Event> events = journal.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, obs::EventKind::RunBegin);
    EXPECT_EQ(events.back().kind, obs::EventKind::RunEnd);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].sequence, i);

    // A phase_end's seconds is its own bracket's wall time: never more
    // than the time from its phase_begin to it (1 ms of slack), even
    // when the phase's work ran on several workers.
    std::map<std::string, double> opened;
    Count phases_checked = 0;
    for (const obs::Event &event : events) {
        if (event.kind == obs::EventKind::PhaseBegin)
            opened[event.label] = event.seconds;
        if (event.kind != obs::EventKind::PhaseEnd)
            continue;
        ASSERT_EQ(opened.count(event.label), 1u) << event.label;
        EXPECT_LE(event.f64("seconds"),
                  event.seconds - opened[event.label] + 1e-3)
            << event.label;
        ++phases_checked;
    }
    EXPECT_EQ(phases_checked, 3u); // materialize, profile, cells
}

TEST(JournalProperty, CollisionClassificationPartitions)
{
    obs::RunJournal journal("property-matrix");
    runJournaledMatrix(2, journal);

    // Per cell: the constructive/destructive/neutral split is a
    // partition of that cell's collisions.
    Count cells_checked = 0;
    for (const obs::Event &event : journal.events()) {
        if (event.kind != obs::EventKind::CellEnd)
            continue;
        ++cells_checked;
        EXPECT_EQ(event.u64("constructive") +
                      event.u64("destructive") +
                      event.u64("neutral"),
                  event.u64("collisions"))
            << event.label;
        EXPECT_LE(event.u64("collisions"), event.u64("lookups"))
            << event.label;
    }
    EXPECT_EQ(cells_checked, 12u);

    // And in aggregate, after summing over all cells.
    const obs::JournalSummary summary = journal.summary();
    EXPECT_EQ(summary.constructive + summary.destructive +
                  summary.neutral,
              summary.collisions);
    EXPECT_GT(summary.collisions, 0u);
}

TEST(JournalProperty, SummaryStableAcrossThreadCounts)
{
    // Thread attribution changes with the pool size; the aggregated
    // physics (cells, branches, collision totals) must not. Fused
    // passes split across spare workers, so the *group* event count
    // tracks the pool size, but every member lands in exactly one
    // chunk, so the member total is stable too.
    obs::RunJournal serial("property-matrix");
    runJournaledMatrix(1, serial);
    obs::RunJournal pooled("property-matrix");
    runJournaledMatrix(4, pooled);
    const obs::JournalSummary one = serial.summary();
    const obs::JournalSummary four = pooled.summary();
    EXPECT_EQ(one.totalEvents - one.fusedGroups,
              four.totalEvents - four.fusedGroups);
    EXPECT_GE(four.fusedGroups, one.fusedGroups);
    EXPECT_EQ(one.fusedMembers, four.fusedMembers);
    EXPECT_EQ(one.cellsEnded, four.cellsEnded);
    EXPECT_EQ(one.kernelCells, four.kernelCells);
    EXPECT_EQ(one.branches, four.branches);
    EXPECT_EQ(one.collisions, four.collisions);
    EXPECT_EQ(one.constructive, four.constructive);
    EXPECT_EQ(one.destructive, four.destructive);
}

TEST(SizeBenefitProperty, LargerGshareNeverMuchWorseOnAliasedLoad)
{
    // On a destructively aliased round-robin stream, a 64x larger
    // gshare must be strictly better (capacity separates the
    // colliding (pc, history) pairs).
    auto run = [](std::size_t bytes) {
        auto predictor = makePredictor(PredictorKind::Gshare, bytes);
        Count correct = 0;
        const Count total = 120000;
        for (Count i = 0; i < total; ++i) {
            const unsigned b = static_cast<unsigned>(i % 3000);
            const Addr pc = 0x1000 + 4 * b;
            const bool taken = (mix64(b) & 1) != 0;
            correct += predictor->predict(pc) == taken;
            predictor->update(pc, taken);
            predictor->updateHistory(taken);
        }
        return static_cast<double>(correct) / total;
    };
    EXPECT_GT(run(65536), run(1024));
}

} // namespace
} // namespace bpsim
