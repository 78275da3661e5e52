/**
 * @file
 * Bit-identity contract of the devirtualized replay kernels
 * (core/engine simulateReplayFused, the engine's only replay path):
 * for every kernel-visited predictor, scheme and shift policy the
 * kernels must produce exactly the SimStats, profile contents and hint
 * counts of the virtual simulate() loop, the oracle; predictors
 * outside the visitor must run the virtual loop transparently.
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
#include "predictor/factory.hh"
#include "predictor/registry.hh"
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

TEST(FastPathTest, HintsWithProfileRunTheRecordKernel)
{
    // The batch kernels cover every shape but hints and a profile
    // together; that shape takes the record kernel and must still
    // match the virtual loop in stats and profile contents.
    const ReplayBuffer &buffer = testBuffer();
    ReplayBuffer::Cursor bias_stream = buffer.cursor();
    const HintDb hints = selectStatic95(
        ProfileDb::collect(bias_stream, testEvalBranches));
    ASSERT_GT(hints.size(), 0u);

    for (const std::string &name : kernelPredictorNames()) {
        SimOptions options;
        options.maxBranches = testEvalBranches;

        CombinedPredictor virtual_combined(makePredictor(name + ":2048"),
                                           hints,
                                           ShiftPolicy::ShiftOutcome);
        ProfileDb virtual_profile;
        options.profile = &virtual_profile;
        ReplayBuffer::Cursor cursor = buffer.cursor();
        const SimStats virtual_stats =
            simulate(virtual_combined, cursor, options);

        CombinedPredictor kernel_combined(makePredictor(name + ":2048"),
                                          hints,
                                          ShiftPolicy::ShiftOutcome);
        ProfileDb kernel_profile;
        options.profile = &kernel_profile;
        bool used_fast = false;
        bool used_simd = true;
        const SimStats kernel_stats = simulateReplay(
            kernel_combined, buffer, options, &used_fast, &used_simd);

        SCOPED_TRACE(name);
        EXPECT_TRUE(used_fast);
        EXPECT_FALSE(used_simd);
        expectSameStats(virtual_stats, kernel_stats);
        expectSameProfile(virtual_profile, kernel_profile);
    }
}

TEST(FastPathTest, AliasSinkSelectsTheRecordKernel)
{
    // The batch kernels do not report lookups to a ContextAliasSink,
    // so attaching one moves a batch-capable predictor to the record
    // kernel, whose sink reports must equal the virtual loop's.
    const ReplayBuffer &buffer = testBuffer();
    SimOptions options;
    options.maxBranches = testEvalBranches;

    auto virtual_predictor = makePredictor(PredictorKind::Gshare, 512);
    ContextAliasSink virtual_sink(1);
    virtual_predictor->attachAliasSink(&virtual_sink);
    ReplayBuffer::Cursor cursor = buffer.cursor();
    const SimStats virtual_stats =
        simulate(*virtual_predictor, cursor, options);

    auto kernel_predictor = makePredictor(PredictorKind::Gshare, 512);
    ContextAliasSink kernel_sink(1);
    kernel_predictor->attachAliasSink(&kernel_sink);
    bool used_fast = false;
    bool used_simd = true;
    const SimStats kernel_stats = simulateReplay(
        *kernel_predictor, buffer, options, &used_fast, &used_simd);

    EXPECT_TRUE(used_fast);
    EXPECT_FALSE(used_simd);
    expectSameStats(virtual_stats, kernel_stats);
    const std::vector<ContextAliasCell> expected = virtual_sink.cells();
    const std::vector<ContextAliasCell> got = kernel_sink.cells();
    ASSERT_EQ(expected.size(), got.size());
    ASSERT_GT(expected.front().collisions, 0u);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].collisions, got[i].collisions);
        EXPECT_EQ(expected[i].constructive, got[i].constructive);
        EXPECT_EQ(expected[i].destructive, got[i].destructive);
    }

    // Detached again, the same predictor runs the batch kernels.
    kernel_predictor->attachAliasSink(nullptr);
    simulateReplay(*kernel_predictor, buffer, options, &used_fast,
                   &used_simd);
    EXPECT_TRUE(used_simd);
}

} // namespace
} // namespace bpsim
