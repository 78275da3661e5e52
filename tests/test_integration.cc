/**
 * @file
 * Cross-module integration tests: live workload vs recorded trace
 * equivalence, the full profile->select->evaluate pipeline through
 * on-disk artifacts, and end-to-end shape checks that tie the
 * workload, predictors and static selection together.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/engine.hh"
#include "core/experiment.hh"
#include "trace/trace_io.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return testing::TempDir() + "bpsim_integ_" + tag + "_" +
           std::to_string(::getpid());
}

TEST(Integration, LiveAndRecordedStreamsAgree)
{
    // Simulating a live program and simulating a trace recorded from
    // the same program must produce identical statistics.
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref);
    const Count n = 200000;

    const std::string path = tempPath("live_vs_trace") + ".trace";
    {
        program.reset();
        BoundedStream bounded(program, n);
        TraceWriter writer(path);
        EXPECT_EQ(writer.writeAll(bounded), n);
    }

    auto a = makePredictor(PredictorKind::TwoBcGskew, 8192);
    SimOptions options;
    options.maxBranches = n;
    const SimStats live = simulate(*a, program, options);

    TraceReader reader(path);
    auto b = makePredictor(PredictorKind::TwoBcGskew, 8192);
    const SimStats recorded = simulate(*b, reader, options);

    EXPECT_EQ(live.branches, recorded.branches);
    EXPECT_EQ(live.instructions, recorded.instructions);
    EXPECT_EQ(live.mispredictions, recorded.mispredictions);
    EXPECT_EQ(live.collisions.collisions,
              recorded.collisions.collisions);
    std::remove(path.c_str());
}

TEST(Integration, PipelineThroughDiskArtifacts)
{
    // Phase 1 writes a profile database; an offline pass turns it
    // into a hint database; phase 2 reads the hints back — the
    // deployment flow of a Spike-style optimizer.
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::M88ksim, InputSet::Ref);
    const std::string profile_path = tempPath("profile") + ".profile";
    const std::string hints_path = tempPath("hints") + ".hints";

    {
        auto predictor = makePredictor(PredictorKind::Gshare, 4096);
        ProfileDb profile;
        SimOptions options;
        options.maxBranches = 300000;
        options.profile = &profile;
        simulate(*predictor, program, options);
        profile.save(profile_path);
    }
    {
        const Result<ProfileDb> loaded = ProfileDb::load(profile_path);
        ASSERT_TRUE(loaded.ok()) << loaded.error().describe();
        const ProfileDb &profile = loaded.value();
        HintDb hints = selectStatic95(profile);
        EXPECT_GT(hints.size(), 20u);
        hints.save(hints_path);
    }

    const Result<HintDb> hints = HintDb::load(hints_path);
    ASSERT_TRUE(hints.ok()) << hints.error().describe();
    CombinedPredictor combined(
        makePredictor(PredictorKind::Gshare, 4096), hints.value());
    SimOptions options;
    options.maxBranches = 300000;
    const SimStats stats = simulate(combined, program, options);
    EXPECT_GT(stats.staticPredicted, stats.branches / 2);

    std::remove(profile_path.c_str());
    std::remove(hints_path.c_str());
}

TEST(Integration, StaticPredictionRemovesHintedBranchesFromTables)
{
    // The central mechanism: statically predicted branches stop
    // indexing the dynamic tables, so table lookups drop sharply and
    // (for an alias-dominated program like gcc) total collisions drop
    // too. The paper notes collisions can occasionally *rise* in
    // other configurations (its ijpeg observation), so the collision
    // assertion is tied to the robust configuration.
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    ExperimentConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 2048;
    config.profileBranches = 300000;
    config.evalBranches = 400000;

    config.scheme = StaticScheme::None;
    const ExperimentResult base =
        runExperimentStreams(program, program, config);
    config.scheme = StaticScheme::StaticAcc;
    const ExperimentResult with =
        runExperimentStreams(program, program, config);

    EXPECT_LT(with.stats.collisions.lookups,
              base.stats.collisions.lookups);
    EXPECT_LT(with.stats.collisions.collisions,
              base.stats.collisions.collisions);
}

TEST(Integration, BimodalGainsNothingFromStatic95)
{
    // Figures 7-12 headline: bimodal + Static_95 is a wash because
    // bimodal already captures biased branches.
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Perl, InputSet::Ref);
    ExperimentConfig config;
    config.kind = PredictorKind::Bimodal;
    config.sizeBytes = 8192;
    config.profileBranches = 300000;
    config.evalBranches = 400000;

    config.scheme = StaticScheme::None;
    const double base =
        runExperimentStreams(program, program, config).stats.mispKi();
    config.scheme = StaticScheme::Static95;
    const double with =
        runExperimentStreams(program, program, config).stats.mispKi();

    EXPECT_NEAR(with, base, base * 0.05);
}

TEST(Integration, GhistGainsClearlyFromStatic95)
{
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::M88ksim, InputSet::Ref);
    ExperimentConfig config;
    config.kind = PredictorKind::Ghist;
    config.sizeBytes = 4096;
    config.profileBranches = 300000;
    config.evalBranches = 400000;

    config.scheme = StaticScheme::None;
    const double base =
        runExperimentStreams(program, program, config).stats.mispKi();
    config.scheme = StaticScheme::Static95;
    const double with =
        runExperimentStreams(program, program, config).stats.mispKi();

    EXPECT_LT(with, base * 0.95);
}

TEST(Integration, InputSwitchMidProgramIsClean)
{
    // Alternate inputs repeatedly on one program object; stats stay
    // reproducible per input (no state leaks across setInput).
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Go, InputSet::Train);
    auto run = [&](InputSet input) {
        program.setInput(input);
        auto predictor = makePredictor(PredictorKind::Gshare, 2048);
        SimOptions options;
        options.maxBranches = 100000;
        return simulate(*predictor, program, options).mispredictions;
    };
    const Count train_a = run(InputSet::Train);
    const Count ref_a = run(InputSet::Ref);
    const Count train_b = run(InputSet::Train);
    const Count ref_b = run(InputSet::Ref);
    EXPECT_EQ(train_a, train_b);
    EXPECT_EQ(ref_a, ref_b);
    EXPECT_NE(train_a, ref_a);
}

} // namespace
} // namespace bpsim
