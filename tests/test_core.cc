/**
 * @file
 * Unit tests for the core module: SimStats math, the combined
 * static/dynamic predictor (hint override, no training of the dynamic
 * tables, shift policies), the simulation engine, and the two-phase
 * experiment driver.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/combined_predictor.hh"
#include "core/engine.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "predictor/bimodal.hh"
#include "predictor/gshare.hh"
#include "support/random.hh"
#include "trace/memory_trace.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

TEST(SimStatsTest, MetricMath)
{
    SimStats stats;
    stats.branches = 1000;
    stats.instructions = 8000;
    stats.mispredictions = 40;
    EXPECT_DOUBLE_EQ(stats.mispKi(), 5.0);
    EXPECT_DOUBLE_EQ(stats.accuracyPercent(), 96.0);
    EXPECT_DOUBLE_EQ(stats.cbrsKi(), 125.0);

    SimStats better = stats;
    better.mispredictions = 30;
    EXPECT_DOUBLE_EQ(mispKiImprovement(stats, better), 25.0);
}

TEST(CombinedPredictorTest, HintOverridesDynamic)
{
    HintDb hints;
    hints.insert(0x100, true);
    CombinedPredictor combined(std::make_unique<Bimodal>(2048), hints);

    // The dynamic component would say not-taken from a cold table;
    // the hint forces taken.
    EXPECT_TRUE(combined.predict(0x100));
    EXPECT_TRUE(combined.lastWasStatic());
    EXPECT_FALSE(combined.predict(0x104));
    EXPECT_FALSE(combined.lastWasStatic());
}

TEST(CombinedPredictorTest, StaticBranchesDoNotTrainDynamic)
{
    HintDb hints;
    hints.insert(0x100, false);
    auto dynamic = std::make_unique<Bimodal>(2048);
    Bimodal *raw = dynamic.get();
    CombinedPredictor combined(std::move(dynamic), hints);

    // Hammer the hinted branch as taken: the bimodal entry must stay
    // cold because static branches never touch the tables.
    for (int i = 0; i < 100; ++i) {
        combined.predict(0x100);
        combined.update(0x100, true);
        combined.updateHistory(true);
    }
    EXPECT_FALSE(raw->predict(0x100));
    // And no lookups were recorded by the dynamic component.
    EXPECT_EQ(combined.collisionStats().lookups, 1u); // the probe above
}

TEST(CombinedPredictorTest, ShiftPolicies)
{
    // Use gshare so history matters. Train an alternating branch at
    // 0x200 whose predictability depends on seeing the hinted
    // branch's outcomes in the history register.
    HintDb hints;
    hints.insert(0x100, true);

    auto run = [&](ShiftPolicy policy) {
        CombinedPredictor combined(std::make_unique<Gshare>(64),
                                   hints, policy);
        // The hinted branch's outcome is random; 0x200 copies it.
        // The correlation is visible to gshare only if the hinted
        // branch's outcome is shifted into the history register.
        Rng rng(31);
        int correct = 0;
        int measured = 0;
        for (int i = 0; i < 4000; ++i) {
            const bool hinted_outcome = rng.chance(0.5);
            combined.predict(0x100);
            combined.update(0x100, hinted_outcome);
            combined.updateHistory(hinted_outcome);

            const bool prediction = combined.predict(0x200);
            combined.update(0x200, hinted_outcome);
            combined.updateHistory(hinted_outcome);
            if (i > 1000) {
                ++measured;
                correct += prediction == hinted_outcome;
            }
        }
        return static_cast<double>(correct) / measured;
    };

    const double no_shift = run(ShiftPolicy::NoShift);
    const double shift = run(ShiftPolicy::ShiftOutcome);
    // With the outcome shifted, gshare sees the correlation source
    // and nails the dependent branch; without it the dependent branch
    // alternates unpredictably at a fixed index.
    EXPECT_GT(shift, 0.95);
    EXPECT_LT(no_shift, 0.80);
}

TEST(CombinedPredictorTest, ShiftPredictionUsesHintDirection)
{
    HintDb hints;
    hints.insert(0x100, true);
    CombinedPredictor combined(std::make_unique<Gshare>(1024), hints,
                               ShiftPolicy::ShiftPrediction);
    // Must not crash and must not consult the dynamic predictor for
    // the hinted branch; behavioural equivalence with ShiftOutcome
    // when outcome == hint.
    combined.predict(0x100);
    combined.update(0x100, true);
    combined.updateHistory(true);
    EXPECT_EQ(combined.collisionStats().lookups, 0u);
}

TEST(CombinedPredictorTest, Accounting)
{
    HintDb hints;
    hints.insert(0x100, true);
    CombinedPredictor combined(std::make_unique<Bimodal>(2048), hints);
    EXPECT_EQ(combined.sizeBytes(), 2048u);
    EXPECT_EQ(combined.name(), "bimodal+static");
    EXPECT_EQ(combined.hintDb().size(), 1u);
    EXPECT_EQ(combined.policy(), ShiftPolicy::NoShift);
}

TEST(EngineTest, CountsAndProfile)
{
    MemoryTrace trace;
    for (int i = 0; i < 100; ++i) {
        trace.append({0x100, true, 10});
        trace.append({0x200, i % 2 == 0, 10});
    }
    Bimodal predictor(2048);
    ProfileDb profile;
    SimOptions options;
    options.profile = &profile;
    SimStats stats = simulate(predictor, trace, options);

    EXPECT_EQ(stats.branches, 200u);
    EXPECT_GT(stats.instructions, 1800u);
    EXPECT_EQ(profile.find(0x100)->executed, 100u);
    EXPECT_EQ(profile.find(0x200)->taken, 50u);
    EXPECT_EQ(profile.find(0x100)->predicted, 100u);
    // 0x100 is all-taken: bimodal mispredicts at most the warmup.
    EXPECT_GE(profile.find(0x100)->correct, 98u);
    // 0x200 alternates: bimodal is poor there.
    EXPECT_LT(profile.find(0x200)->accuracy(), 0.7);
}

TEST(EngineTest, MaxBranchesBound)
{
    MemoryTrace trace;
    for (int i = 0; i < 100; ++i)
        trace.append({0x100, true, 1});
    Bimodal predictor(2048);
    SimOptions options;
    options.maxBranches = 30;
    SimStats stats = simulate(predictor, trace, options);
    EXPECT_EQ(stats.branches, 30u);
}

TEST(EngineTest, StaticAttribution)
{
    MemoryTrace trace;
    for (int i = 0; i < 50; ++i) {
        trace.append({0x100, true, 1});  // hinted correctly
        trace.append({0x200, false, 1}); // hinted wrongly
        trace.append({0x300, true, 1});  // dynamic
    }
    HintDb hints;
    hints.insert(0x100, true);
    hints.insert(0x200, true);
    CombinedPredictor combined(std::make_unique<Bimodal>(2048), hints);
    SimStats stats = simulate(combined, trace);

    EXPECT_EQ(stats.staticPredicted, 100u);
    EXPECT_EQ(stats.staticMispredictions, 50u);
    EXPECT_NEAR(stats.staticShare(), 66.7, 0.1);
}

TEST(EngineTest, ProfileSkipsStaticPredictions)
{
    MemoryTrace trace;
    for (int i = 0; i < 50; ++i)
        trace.append({0x100, true, 1});
    HintDb hints;
    hints.insert(0x100, true);
    CombinedPredictor combined(std::make_unique<Bimodal>(2048), hints);
    ProfileDb profile;
    SimOptions options;
    options.profile = &profile;
    simulate(combined, trace, options);
    // Outcomes recorded, but no dynamic-prediction statistics.
    EXPECT_EQ(profile.find(0x100)->executed, 50u);
    EXPECT_EQ(profile.find(0x100)->predicted, 0u);
}

TEST(ExperimentTest, SelfTrainedStatic95HelpsGshareOnGcc)
{
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    ExperimentConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 4096;
    config.profileBranches = 300000;
    config.evalBranches = 600000;

    // One live program serves both phases: each resets it first.
    config.scheme = StaticScheme::None;
    ExperimentResult base =
        runExperimentStreams(program, program, config);
    EXPECT_EQ(base.hintCount, 0u);
    EXPECT_EQ(base.stats.staticPredicted, 0u);

    config.scheme = StaticScheme::Static95;
    ExperimentResult with =
        runExperimentStreams(program, program, config);
    EXPECT_GT(with.hintCount, 50u);
    EXPECT_GT(with.stats.staticPredicted, 0u);
    EXPECT_LT(with.stats.mispKi(), base.stats.mispKi());
}

TEST(ExperimentTest, RunBaselineMatchesNoneScheme)
{
    // A pure dynamic baseline is a none cell: the runner's equals the
    // oracle over the live program.
    ExperimentConfig config;
    config.kind = PredictorKind::Bimodal;
    config.sizeBytes = 2048;
    config.evalBranches = 200000;
    config.scheme = StaticScheme::None;

    RunnerOptions options;
    options.threads = 1;
    ExperimentRunner runner(options);
    runner.addCell(runner.addProgram(makeSpecProgram(
                       SpecProgram::Compress, InputSet::Ref)),
                   config);
    const MatrixResult matrix = runner.run();
    ASSERT_TRUE(matrix.cells[0].ok());

    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref);
    const SimStats via_oracle =
        runExperimentStreams(program, program, config).stats;
    const SimStats &via_runner = matrix.cells[0].result.stats;
    EXPECT_EQ(via_runner.mispredictions, via_oracle.mispredictions);
    EXPECT_EQ(via_runner.branches, via_oracle.branches);
    EXPECT_EQ(via_runner.branches, 200000u);
}

TEST(ExperimentTest, CrossTrainedUsesTrainInput)
{
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Perl, InputSet::Ref);
    SyntheticProgram train =
        makeSpecProgram(SpecProgram::Perl, InputSet::Train);
    ExperimentConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 4096;
    config.scheme = StaticScheme::Static95;
    config.profileBranches = 300000;
    config.evalBranches = 300000;

    config.profileInput = InputSet::Ref;
    const double self =
        runExperimentStreams(program, program, config).stats.mispKi();

    config.profileInput = InputSet::Train;
    const double naive =
        runExperimentStreams(train, program, config).stats.mispKi();

    config.filterUnstable = true;
    const double filtered =
        runExperimentStreams(train, program, config).stats.mispKi();

    // Perl's hot flipping branches: naive cross-training must be
    // clearly worse than self-training, and filtering must recover
    // most of the loss (the paper's Figure 13).
    EXPECT_GT(naive, self * 1.1);
    EXPECT_LT(filtered, naive);
}

TEST(ShiftPolicyNamesTest, AllNamed)
{
    EXPECT_EQ(shiftPolicyName(ShiftPolicy::NoShift), "noshift");
    EXPECT_EQ(shiftPolicyName(ShiftPolicy::ShiftOutcome), "shift");
    EXPECT_EQ(shiftPolicyName(ShiftPolicy::ShiftPrediction),
              "shiftpred");
}

} // namespace
} // namespace bpsim
