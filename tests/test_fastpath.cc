/**
 * @file
 * Bit-identity contract of the devirtualized replay kernels
 * (core/engine simulateReplayFused, the engine's only replay path):
 * for every kernel-visited predictor, scheme, shift policy and
 * attached alias sink the kernels must produce exactly the SimStats,
 * profile contents, hint counts and interference-matrix cells of the
 * virtual simulate() loop, the oracle; predictors outside the visitor
 * must run the virtual loop transparently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hh"
#include "core/experiment.hh"
#include "oracle.hh"
#include "predictor/context_alias.hh"
#include "predictor/factory.hh"
#include "predictor/registry.hh"
#include "scenario/scenario.hh"
#include "staticsel/selection.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

constexpr Count testProfileBranches = 60'000;
constexpr Count testEvalBranches = 120'000;

/**
 * The registered names of the kernel-visited predictors: the paper's
 * kinds first, in PredictorKind order, then every other
 * kernel-capable registration (tage, perceptron).
 */
const std::vector<std::string> &
kernelPredictorNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const PredictorKind kind : allPredictorKinds())
            out.push_back(predictorKindName(kind));
        for (const PredictorInfo *info :
             PredictorRegistry::instance().all()) {
            if (info->kernelCapable && !info->paperKind)
                out.push_back(info->name);
        }
        return out;
    }();
    return names;
}

/**
 * Test parameter naming one kernelPredictorNames() entry by position.
 * gtest prints it as a 4-byte object, as it prints the PredictorKind
 * values whose positions it shares, so the paper kinds keep their
 * test ids.
 */
struct KernelPredictor
{
    std::uint32_t position;

    const std::string &
    name() const
    {
        return kernelPredictorNames()[position];
    }
};

std::vector<KernelPredictor>
allKernelPredictors()
{
    std::vector<KernelPredictor> all;
    for (std::uint32_t p = 0; p < kernelPredictorNames().size(); ++p)
        all.push_back({p});
    return all;
}

ExperimentConfig
fastConfig(const std::string &predictor, StaticScheme scheme)
{
    ExperimentConfig config;
    config.predictor = predictor;
    config.sizeBytes = 2048;
    config.scheme = scheme;
    config.profileBranches = testProfileBranches;
    config.evalBranches = testEvalBranches;
    return config;
}

using oracle::expectSameAliasMatrix;
using oracle::expectSameProfile;
using oracle::expectSameStats;

/**
 * One experiment over the replay path: prepareEvaluationReplay (with
 * its own profiling pass), simulateReplay and finishPreparedEvaluation.
 * @p used_kernel reports whether every simulation ran devirtualized,
 * @p used_simd whether every one ran the batch kernels.
 */
ExperimentResult
replayExperiment(const ReplayBuffer &buffer,
                 const ExperimentConfig &config, bool *used_kernel,
                 bool *used_simd = nullptr)
{
    PreparedEvaluation prepared =
        prepareEvaluationReplay(&buffer, buffer, config, nullptr);
    bool eval_kernel = false;
    bool eval_simd = false;
    const SimStats stats = simulateReplay(
        *prepared.combined, buffer, evalSimOptions(config, prepared),
        &eval_kernel, &eval_simd);
    *used_kernel = prepared.preEvalFastPath && eval_kernel;
    if (used_simd != nullptr)
        *used_simd = prepared.preEvalSimd && eval_simd;
    return finishPreparedEvaluation(prepared, config, stats, &buffer);
}

const ReplayBuffer &
testBuffer()
{
    static const ReplayBuffer buffer = [] {
        SyntheticProgram program =
            makeSpecProgram(SpecProgram::Go, InputSet::Ref);
        return ReplayBuffer::materialize(
            program,
            std::max(testProfileBranches, testEvalBranches));
    }();
    return buffer;
}

using KindScheme = std::tuple<KernelPredictor, StaticScheme>;

class FastPathExperiment
    : public ::testing::TestWithParam<KindScheme>
{};

TEST_P(FastPathExperiment, KernelIdenticalToVirtualPath)
{
    const auto [predictor, scheme] = GetParam();
    const ExperimentConfig config = fastConfig(predictor.name(), scheme);
    const ReplayBuffer &buffer = testBuffer();

    // Virtual path: the stream-based core only ever uses simulate().
    ReplayBuffer::Cursor profile_stream = buffer.cursor();
    ReplayBuffer::Cursor eval_stream = buffer.cursor();
    const ExperimentResult virtual_result =
        runExperimentStreams(profile_stream, eval_stream, config);

    bool used_fast = false;
    bool used_simd = false;
    const ExperimentResult kernel_result =
        replayExperiment(buffer, config, &used_fast, &used_simd);

    EXPECT_TRUE(used_fast);
    EXPECT_TRUE(used_simd);
    expectSameStats(virtual_result.stats, kernel_result.stats);
    EXPECT_EQ(virtual_result.hintCount, kernel_result.hintCount);
    EXPECT_EQ(virtual_result.simulatedBranches,
              kernel_result.simulatedBranches);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSchemes, FastPathExperiment,
    ::testing::Combine(
        ::testing::ValuesIn(allKernelPredictors()),
        ::testing::Values(StaticScheme::None, StaticScheme::Static95,
                          StaticScheme::StaticAcc)),
    [](const auto &info) {
        return std::get<0>(info.param).name() + "_" +
               staticSchemeName(std::get<1>(info.param));
    });

class FastPathProfile
    : public ::testing::TestWithParam<KernelPredictor>
{};

TEST_P(FastPathProfile, ProfilePhaseIdenticalToVirtualPath)
{
    const ExperimentConfig config =
        fastConfig(GetParam().name(), StaticScheme::StaticAcc);
    const ReplayBuffer &buffer = testBuffer();

    ReplayBuffer::Cursor stream = buffer.cursor();
    const ProfilePhase virtual_phase =
        runProfilePhase(stream, config);

    const FusedProfileOutcome kernel =
        runProfilePhasesFusedReplay(buffer, {&config}).front();

    EXPECT_TRUE(kernel.usedFastPath);
    EXPECT_TRUE(kernel.usedSimd);
    EXPECT_EQ(virtual_phase.simulatedBranches,
              kernel.phase.simulatedBranches);
    expectSameProfile(virtual_phase.profile, kernel.phase.profile);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FastPathProfile,
                         ::testing::ValuesIn(allKernelPredictors()),
                         [](const auto &info) {
                             return info.param.name();
                         });

TEST(FastPathTest, ShiftPoliciesIdenticalToVirtualPath)
{
    // The kernels own the history treatment of statically predicted
    // branches; every policy must match the wrapper for every kernel
    // type.
    const ReplayBuffer &buffer = testBuffer();
    for (const std::string &name : kernelPredictorNames()) {
        for (const auto shift :
             {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome,
              ShiftPolicy::ShiftPrediction}) {
            SCOPED_TRACE(name + " " + shiftPolicyName(shift));
            ExperimentConfig config =
                fastConfig(name, StaticScheme::Static95);
            config.shift = shift;

            ReplayBuffer::Cursor profile_stream = buffer.cursor();
            ReplayBuffer::Cursor eval_stream = buffer.cursor();
            const ExperimentResult virtual_result =
                runExperimentStreams(profile_stream, eval_stream, config);

            bool used_fast = false;
            bool used_simd = false;
            const ExperimentResult kernel_result =
                replayExperiment(buffer, config, &used_fast, &used_simd);

            EXPECT_TRUE(used_fast);
            EXPECT_TRUE(used_simd);
            expectSameStats(virtual_result.stats, kernel_result.stats);
            EXPECT_EQ(virtual_result.hintCount, kernel_result.hintCount);
        }
    }
}

TEST(FastPathTest, WarmupIdenticalToVirtualPath)
{
    // Warmup trains tables *and* collision tags before measurement;
    // the kernel schedule must leave the predictor in the same state.
    const ReplayBuffer &buffer = testBuffer();
    SimOptions options;
    options.warmupBranches = 20'000;
    options.maxBranches = 50'000;

    for (const std::string &name : kernelPredictorNames()) {
        auto virtual_predictor = makePredictor(name + ":2048");
        ReplayBuffer::Cursor cursor = buffer.cursor();
        const SimStats virtual_stats =
            simulate(*virtual_predictor, cursor, options);

        auto kernel_predictor = makePredictor(name + ":2048");
        bool used_fast = false;
        bool used_simd = false;
        const SimStats kernel_stats = simulateReplay(
            *kernel_predictor, buffer, options, &used_fast, &used_simd);

        SCOPED_TRACE(name);
        EXPECT_TRUE(used_fast);
        EXPECT_TRUE(used_simd);
        expectSameStats(virtual_stats, kernel_stats);
    }
}

TEST(FastPathTest, EmptyHintCombinedStillUsesKernel)
{
    // The evaluation phase always wraps the dynamic predictor in a
    // CombinedPredictor even without hints; the dispatcher must see
    // through the empty wrapper rather than fall back.
    const ReplayBuffer &buffer = testBuffer();
    SimOptions options;
    options.maxBranches = testEvalBranches;

    CombinedPredictor virtual_combined(
        makePredictor(PredictorKind::Gshare, 2048), HintDb{});
    ReplayBuffer::Cursor cursor = buffer.cursor();
    const SimStats virtual_stats =
        simulate(virtual_combined, cursor, options);

    CombinedPredictor kernel_combined(
        makePredictor(PredictorKind::Gshare, 2048), HintDb{});
    bool used_fast = false;
    const SimStats kernel_stats = simulateReplay(
        kernel_combined, buffer, options, &used_fast);

    EXPECT_TRUE(used_fast);
    expectSameStats(virtual_stats, kernel_stats);
}

TEST(FastPathTest, UnknownPredictorFallsBackToVirtual)
{
    // Extension predictors are outside the visitor; simulateReplay
    // must transparently take the virtual path and still be correct.
    const ReplayBuffer &buffer = testBuffer();
    SimOptions options;
    options.maxBranches = testEvalBranches;

    auto virtual_predictor = makePredictor("yags:2048");
    ReplayBuffer::Cursor cursor = buffer.cursor();
    const SimStats virtual_stats =
        simulate(*virtual_predictor, cursor, options);

    auto replay_predictor = makePredictor("yags:2048");
    bool used_fast = true;
    const SimStats replay_stats = simulateReplay(
        *replay_predictor, buffer, options, &used_fast);

    EXPECT_FALSE(used_fast);
    expectSameStats(virtual_stats, replay_stats);
}

TEST(FastPathTest, CustomFactoryExperimentFallsBack)
{
    // A makeDynamic factory constructing a non-visitable type runs
    // the whole experiment on the virtual path, bit-identically.
    ExperimentConfig config = fastConfig("gshare", StaticScheme::Static95);
    config.makeDynamic = [] { return makePredictor("yags:2048"); };
    const ReplayBuffer &buffer = testBuffer();

    ReplayBuffer::Cursor profile_stream = buffer.cursor();
    ReplayBuffer::Cursor eval_stream = buffer.cursor();
    const ExperimentResult virtual_result =
        runExperimentStreams(profile_stream, eval_stream, config);

    bool used_fast = true;
    const ExperimentResult replay_result =
        replayExperiment(buffer, config, &used_fast);

    EXPECT_FALSE(used_fast);
    expectSameStats(virtual_result.stats, replay_result.stats);
    EXPECT_EQ(virtual_result.hintCount, replay_result.hintCount);
}

/** Records of the scenario buffer (small: the asan leg runs it). */
constexpr Count scenarioBranches = 60'000;
constexpr std::size_t scenarioContexts = 2;

/**
 * A two-context SMT interleave of go and compress, each in its own PC
 * space: the input of a scenario evaluation, whose shared tables see
 * cross-context collisions on every table size.
 */
const ReplayBuffer &
scenarioBuffer()
{
    static const ReplayBuffer buffer = [] {
        std::vector<SyntheticProgram> members;
        members.push_back(makeSpecProgram(SpecProgram::Go, InputSet::Ref));
        members.push_back(
            makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
        ScenarioSpec smt;
        smt.kind = ScenarioKind::Smt;
        ScenarioWorkload workload(smt, std::move(members));
        return ReplayBuffer::materialize(workload, scenarioBranches);
    }();
    return buffer;
}

/** Static_95 hints over the scenario buffer. */
const HintDb &
scenarioHints()
{
    static const HintDb hints = [] {
        ReplayBuffer::Cursor cursor = scenarioBuffer().cursor();
        return selectStatic95(ProfileDb::collect(cursor, scenarioBranches));
    }();
    return hints;
}

/** One run of a predictor with a ContextAliasSink attached. */
struct AttributedRun
{
    SimStats stats;
    ProfileDb profile;
    ContextAliasSink sink{scenarioContexts};
    bool usedSimd = false;
};

/**
 * Run @p spec wrapped with @p hints under @p shift over the scenario
 * buffer, with a sink attached and optionally a profile: through the
 * engine's replay path when @p replay is set, else through the
 * oracle, simulate().
 */
AttributedRun
attributedRun(const std::string &spec, const HintDb &hints,
              ShiftPolicy shift, bool profiled, Count warmup, bool replay)
{
    AttributedRun run;
    CombinedPredictor predictor(makePredictor(spec), hints, shift);
    predictor.attachAliasSink(&run.sink);
    SimOptions options;
    options.warmupBranches = warmup;
    options.profile = profiled ? &run.profile : nullptr;
    if (replay) {
        run.stats = simulateReplay(predictor, scenarioBuffer(), options,
                                   nullptr, &run.usedSimd);
    } else {
        ReplayBuffer::Cursor cursor = scenarioBuffer().cursor();
        run.stats = simulate(predictor, cursor, options);
    }
    return run;
}

class FastPathAttributed
    : public ::testing::TestWithParam<KernelPredictor>
{};

TEST_P(FastPathAttributed, SoloShapesMatchTheVirtualLoop)
{
    // A sim with a profile or a ContextAliasSink runs alone on the
    // batch kernels' solo shape, with its hints under its shift
    // policy. Every combination, warmup included, must match the
    // virtual loop in stats, profile counts and every sink cell.
    const std::string spec = GetParam().name() + ":2048";
    ASSERT_GT(scenarioHints().size(), 0u);
    const HintDb no_hints;
    for (const auto shift :
         {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome,
          ShiftPolicy::ShiftPrediction}) {
        for (const bool hinted : {false, true}) {
            for (const bool profiled : {false, true}) {
                for (const Count warmup : {Count{0}, Count{7'000}}) {
                    SCOPED_TRACE(shiftPolicyName(shift) +
                                 (hinted ? " hinted" : " unhinted") +
                                 (profiled ? " profiled" : "") +
                                 " warmup " + std::to_string(warmup));
                    const HintDb &hints =
                        hinted ? scenarioHints() : no_hints;
                    const AttributedRun expected = attributedRun(
                        spec, hints, shift, profiled, warmup, false);
                    const AttributedRun got = attributedRun(
                        spec, hints, shift, profiled, warmup, true);

                    EXPECT_TRUE(got.usedSimd);
                    expectSameStats(expected.stats, got.stats);
                    expectSameProfile(expected.profile, got.profile);
                    expectSameAliasMatrix(expected.sink.cells(),
                                          got.sink.cells());
                    EXPECT_GT(got.sink.cell(0, 1).collisions +
                                  got.sink.cell(1, 0).collisions,
                              0u);
                }
            }
        }
    }

    // Detached again, the same predictor runs the unattributed
    // kernels and leaves the sink as the attached run left it.
    auto predictor = makePredictor(spec);
    ContextAliasSink sink(scenarioContexts);
    predictor->attachAliasSink(&sink);
    simulateReplay(*predictor, scenarioBuffer());
    const std::vector<ContextAliasCell> attached = sink.cells();
    predictor->attachAliasSink(nullptr);
    bool used_simd = false;
    simulateReplay(*predictor, scenarioBuffer(), {}, nullptr, &used_simd);
    EXPECT_TRUE(used_simd);
    expectSameAliasMatrix(attached, sink.cells());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FastPathAttributed,
                         ::testing::ValuesIn(allKernelPredictors()),
                         [](const auto &info) {
                             return info.param.name();
                         });

} // namespace
} // namespace bpsim
