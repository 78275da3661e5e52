/**
 * @file
 * Bit-identity contract of the devirtualized replay kernels
 * (core/engine simulateReplayFused, the engine's only replay path):
 * for every kernel-visited predictor, scheme, shift policy and
 * attached alias sink the kernels must produce exactly the SimStats,
 * profile contents, hint counts, interference-matrix cells and
 * per-table collision statistics of the virtual simulate() loop, the
 * oracle; predictors outside the visitor must run the virtual loop
 * transparently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/batch_kernels.hh"
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
 * kinds first, in PredictorKind order, then the other kernel-capable
 * registrations in the order they gained batch kernels, so a new one
 * appends and no existing test id moves.
 * FastPathTest.KernelListCoversTheRegistry holds the list to the
 * registry.
 */
const std::vector<std::string> &
kernelPredictorNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const PredictorKind kind : allPredictorKinds())
            out.push_back(predictorKindName(kind));
        for (const char *name : {"perceptron", "tage", "agree"})
            out.push_back(name);
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

void expectSameTables(BranchPredictor &expected, BranchPredictor &got);

/**
 * @p got is left in @p expected's state: from there, a further
 * stretch of the buffer predicts the same. Covers what table statistics
 * cannot see (counters, histories, tags), for every predictor type.
 */
void
expectSameContinuation(BranchPredictor &expected, BranchPredictor &got,
                       const ReplayBuffer &buffer)
{
    expected.clearCollisionStats();
    got.clearCollisionStats();
    const Count records = std::min<Count>(20'000, buffer.size());
    Count differing = 0;
    BranchRecord record;
    for (Count i = 0; i < records; ++i) {
        buffer.get(i, record);
        if (expected.predict(record.pc) != got.predict(record.pc))
            ++differing;
        for (BranchPredictor *predictor : {&expected, &got}) {
            predictor->update(record.pc, record.taken);
            predictor->updateHistory(record.taken);
        }
    }
    EXPECT_EQ(differing, 0u);
    const CollisionStats want = expected.collisionStats();
    const CollisionStats have = got.collisionStats();
    EXPECT_EQ(want.lookups, have.lookups);
    EXPECT_EQ(want.collisions, have.collisions);
    EXPECT_EQ(want.constructive, have.constructive);
    EXPECT_EQ(want.destructive, have.destructive);
}

/**
 * A phase of @p config carried over @p buffer by an unhinted
 * evaluation sim of @p spec over @p eval records, as the runner
 * carries a phase with its `none` twin. The phase must equal
 * runProfilePhase() over its own records (no more than the carrier
 * steps), and the carrier a plain run over its window, in stats and
 * in final predictor state.
 */
void
expectCarriedMatches(const std::string &spec,
                     const ExperimentConfig &config,
                     const ReplayBuffer &buffer, Count eval)
{
    ExperimentConfig stepped = config;
    stepped.profileBranches = std::min(config.profileBranches, eval);
    ReplayBuffer::Cursor stream = buffer.cursor();
    const ProfilePhase expected_phase = runProfilePhase(stream, stepped);
    SimOptions options;
    options.maxBranches = eval;
    CombinedPredictor expected(makePredictor(spec), HintDb{});
    ReplayBuffer::Cursor cursor = buffer.cursor();
    const SimStats expected_stats = simulate(expected, cursor, options);

    CombinedPredictor carrier(makePredictor(spec), HintDb{});
    FusedSim sim;
    sim.predictor = &carrier;
    sim.options = options;
    const FusedProfileOutcome outcome =
        runProfilePhasesFusedReplay(buffer, {&config}, nullptr, {&sim})
            .front();

    EXPECT_TRUE(outcome.usedFastPath);
    EXPECT_TRUE(sim.usedFastPath);
    EXPECT_EQ(expected_phase.simulatedBranches,
              outcome.phase.simulatedBranches);
    expectSameProfile(expected_phase.profile, outcome.phase.profile);
    expectSameStats(expected_stats, sim.stats);
    EXPECT_EQ(sim.prefixProfile, nullptr);
    expectSameTables(expected, carrier);
    expectSameContinuation(expected, carrier, buffer);
}

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

    // Carried: the evaluation of the unhinted twin runs in the phase's
    // place, and its first profileBranches records make the profile.
    SCOPED_TRACE("carried");
    expectCarriedMatches(GetParam().name() + ":2048", config, buffer,
                         testEvalBranches);
}

TEST(FastPathTest, CarriedPrefixEndsAnywhere)
{
    // The prefix boundary splits a 16-record batch and a 64Ki-record
    // block, falls on a block edge, or lies at or past the end of the
    // carrier's window (the prefix is then the whole window).
    const ReplayBuffer &buffer = testBuffer();
    const Count block = 65'536;
    const std::vector<std::pair<Count, Count>> cases = {
        {1, testEvalBranches},
        {block + 1, testEvalBranches},
        {70'001, testEvalBranches},
        {block, testEvalBranches},
        {testEvalBranches, testEvalBranches},
        {testEvalBranches + 5'000, testEvalBranches},
        {testEvalBranches, 100'003}};
    for (const std::string &name : kernelPredictorNames()) {
        for (const auto &[prefix, eval] : cases) {
            SCOPED_TRACE(name + " prefix " + std::to_string(prefix) +
                         " of " + std::to_string(eval));
            ExperimentConfig config =
                fastConfig(name, StaticScheme::StaticAcc);
            config.profileBranches = prefix;
            expectCarriedMatches(name + ":2048", config, buffer, eval);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FastPathProfile,
                         ::testing::ValuesIn(allKernelPredictors()),
                         [](const auto &info) {
                             return info.param.name();
                         });

TEST(FastPathTest, KernelListCoversTheRegistry)
{
    std::vector<std::string> capable;
    for (const PredictorInfo *info : PredictorRegistry::instance().all()) {
        if (info->kernelCapable)
            capable.push_back(info->name);
    }
    std::vector<std::string> listed = kernelPredictorNames();
    std::sort(capable.begin(), capable.end());
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(capable, listed);
}

TEST(FastPathTest, ShiftPoliciesIdenticalToVirtualPath)
{
    // The kernels own the history treatment of statically predicted
    // branches; every policy must match the wrapper for every kernel
    // type, at two hint shares, over the full window, a window whose
    // warmup and end fall inside a 16-record batch, and one shorter
    // than a batch.
    const ReplayBuffer &buffer = testBuffer();
    const std::vector<std::pair<Count, Count>> windows = {
        {0, testEvalBranches},
        {3'001, testEvalBranches - 3'006},
        {3'001, 9}};
    for (const std::string &name : kernelPredictorNames()) {
        for (const auto shift :
             {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome,
              ShiftPolicy::ShiftPrediction}) {
            for (const auto scheme :
                 {StaticScheme::Static95, StaticScheme::StaticAcc}) {
                for (const auto &[warmup, eval] : windows) {
                    SCOPED_TRACE(name + " " + shiftPolicyName(shift) +
                                 " " + staticSchemeName(scheme) +
                                 " warmup " + std::to_string(warmup) +
                                 " eval " + std::to_string(eval));
                    ExperimentConfig config = fastConfig(name, scheme);
                    config.shift = shift;
                    config.evalWarmupBranches = warmup;
                    config.evalBranches = eval;

                    ReplayBuffer::Cursor profile_stream = buffer.cursor();
                    ReplayBuffer::Cursor eval_stream = buffer.cursor();
                    const ExperimentResult virtual_result =
                        runExperimentStreams(profile_stream, eval_stream,
                                             config);

                    bool used_fast = false;
                    bool used_simd = false;
                    const ExperimentResult kernel_result = replayExperiment(
                        buffer, config, &used_fast, &used_simd);

                    EXPECT_TRUE(used_fast);
                    EXPECT_TRUE(used_simd);
                    expectSameStats(virtual_result.stats,
                                    kernel_result.stats);
                    EXPECT_EQ(virtual_result.hintCount,
                              kernel_result.hintCount);
                }
            }
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
    // A registered predictor outside BPSIM_KERNEL_PREDICTORS runs the
    // whole experiment on the virtual path, bit-identically.
    const ExperimentConfig config =
        fastConfig("yags", StaticScheme::Static95);
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

/** A hint on every site of the scenario buffer. */
const HintDb &
scenarioEverySiteHints()
{
    static const HintDb hints = [] {
        ReplayBuffer::Cursor cursor = scenarioBuffer().cursor();
        const ProfileDb profile =
            ProfileDb::collect(cursor, scenarioBranches);
        HintDb out;
        for (const auto &[pc, counts] : profile.entries())
            out.insert(pc, counts.majorityTaken());
        return out;
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
              ShiftPolicy shift, bool profiled, Count warmup, bool replay,
              Count max = 0)
{
    AttributedRun run;
    CombinedPredictor predictor(makePredictor(spec), hints, shift);
    predictor.attachAliasSink(&run.sink);
    SimOptions options;
    options.warmupBranches = warmup;
    options.maxBranches = max;
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
    // virtual loop in stats, profile counts and every sink cell: no
    // hints, Static_95, and a hint on every site (under NoShift no
    // record reaches the predictor), over the whole buffer, a window
    // whose warmup and end fall inside a 16-record batch, and one
    // shorter than a batch.
    const std::string spec = GetParam().name() + ":2048";
    ASSERT_GT(scenarioHints().size(), 0u);
    const HintDb no_hints;
    const std::vector<std::pair<Count, Count>> windows = {
        {0, 0}, {7'000, 0}, {7'003, 50'001}, {7'003, 9}};
    for (const auto shift :
         {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome,
          ShiftPolicy::ShiftPrediction}) {
        for (const HintDb *hints :
             {&no_hints, &scenarioHints(), &scenarioEverySiteHints()}) {
            for (const bool profiled : {false, true}) {
                for (const auto &[warmup, max] : windows) {
                    SCOPED_TRACE(shiftPolicyName(shift) + " " +
                                 std::to_string(hints->size()) +
                                 " hints" +
                                 (profiled ? " profiled" : "") +
                                 " warmup " + std::to_string(warmup) +
                                 " max " + std::to_string(max));
                    const AttributedRun expected = attributedRun(
                        spec, *hints, shift, profiled, warmup, false, max);
                    const AttributedRun got = attributedRun(
                        spec, *hints, shift, profiled, warmup, true, max);

                    EXPECT_TRUE(got.usedSimd);
                    expectSameStats(expected.stats, got.stats);
                    expectSameProfile(expected.profile, got.profile);
                    expectSameAliasMatrix(expected.sink.cells(),
                                          got.sink.cells());
                    if (hints != &scenarioEverySiteHints() && max == 0) {
                        EXPECT_GT(got.sink.cell(0, 1).collisions +
                                      got.sink.cell(1, 0).collisions,
                                  0u);
                    }
                }
            }
        }
    }

    {
        // Carried: an unhinted scenario evaluation whose first records
        // also make a profiling phase's profile keeps its own
        // whole-window profile and sink.
        SCOPED_TRACE("carried");
        const Count prefix = 20'005;
        const AttributedRun expected = attributedRun(
            spec, no_hints, ShiftPolicy::NoShift, true, 0, false);
        AttributedRun got;
        CombinedPredictor predictor(makePredictor(spec), no_hints);
        predictor.attachAliasSink(&got.sink);
        ProfileDb prefix_profile;
        std::vector<FusedSim> sims(1);
        sims[0].predictor = &predictor;
        sims[0].options.profile = &got.profile;
        sims[0].prefixProfile = &prefix_profile;
        sims[0].prefixBranches = prefix;
        simulateReplayFused(sims, scenarioBuffer());

        EXPECT_TRUE(sims[0].usedSimd);
        expectSameStats(expected.stats, sims[0].stats);
        expectSameProfile(expected.profile, got.profile);
        expectSameAliasMatrix(expected.sink.cells(), got.sink.cells());

        auto profiler = makePredictor(spec);
        ProfileDb want;
        SimOptions options;
        options.maxBranches = prefix;
        options.profile = &want;
        ReplayBuffer::Cursor cursor = scenarioBuffer().cursor();
        simulate(*profiler, cursor, options);
        expectSameProfile(want, prefix_profile);
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

/** Every CounterTable of kernel-visited @p predictor, in a fixed
 * order (bi-mode: choice, taken, not-taken). */
std::vector<const CounterTable *>
tablesOf(BranchPredictor &predictor)
{
    std::vector<const CounterTable *> out;
    const bool visited = visitPredictor(predictor, [&](auto &p) {
        using P = std::decay_t<decltype(p)>;
        using Traits = BatchTraits<P>;
        if constexpr (std::is_same_v<P, BiMode>) {
            out = {&Traits::choice(p), &Traits::takenTable(p),
                   &Traits::notTakenTable(p)};
        } else if constexpr (std::is_same_v<P, TwoBcGskew>) {
            out = {&Traits::bim(p), &Traits::g0(p), &Traits::g1(p),
                   &Traits::meta(p)};
        } else if constexpr (std::is_same_v<P, Tage>) {
            out.push_back(&Traits::base(p));
            for (unsigned b = 0; b < Tage::numBanks; ++b)
                out.push_back(&Traits::bank(p, b));
        } else if constexpr (std::is_same_v<P, HashedPerceptron>) {
            for (unsigned t = 0; t < HashedPerceptron::numTables; ++t)
                out.push_back(&Traits::table(p, t));
        } else {
            out.push_back(&Traits::table(p));
        }
    });
    EXPECT_TRUE(visited) << predictor.name();
    return out;
}

/** The dynamic component the kernels run for @p predictor. */
BranchPredictor &
dynamicOf(BranchPredictor &predictor)
{
    auto *combined = dynamic_cast<CombinedPredictor *>(&predictor);
    return combined != nullptr ? combined->dynamicComponent()
                               : predictor;
}

/**
 * Each table's own collision statistics equal the oracle's, table by
 * table, and so do agree's bias bits (map and count).
 */
void
expectSameTables(BranchPredictor &expected, BranchPredictor &got)
{
    const std::vector<const CounterTable *> want =
        tablesOf(dynamicOf(expected));
    const std::vector<const CounterTable *> have =
        tablesOf(dynamicOf(got));
    ASSERT_EQ(want.size(), have.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
        SCOPED_TRACE("table " + std::to_string(t));
        const CollisionStats &a = want[t]->stats();
        const CollisionStats &b = have[t]->stats();
        EXPECT_EQ(a.lookups, b.lookups);
        EXPECT_EQ(a.collisions, b.collisions);
        EXPECT_EQ(a.constructive, b.constructive);
        EXPECT_EQ(a.destructive, b.destructive);
        EXPECT_EQ(want[t]->pending(), have[t]->pending());
    }
    auto *agree_want = dynamic_cast<Agree *>(&dynamicOf(expected));
    auto *agree_got = dynamic_cast<Agree *>(&dynamicOf(got));
    ASSERT_EQ(agree_want == nullptr, agree_got == nullptr);
    if (agree_want != nullptr) {
        EXPECT_EQ(agree_want->biasBitCount(), agree_got->biasBitCount());
        EXPECT_EQ(BatchTraits<Agree>::biasBits(*agree_want),
                  BatchTraits<Agree>::biasBits(*agree_got));
    }
}

/** Static_95 hints over the test buffer. */
const HintDb &
testHints()
{
    static const HintDb hints = [] {
        ReplayBuffer::Cursor cursor = testBuffer().cursor();
        return selectStatic95(
            ProfileDb::collect(cursor, testProfileBranches));
    }();
    return hints;
}

/** Static_Acc hints of @p spec, from its profile of the test
 * buffer's profiling window. */
HintDb
testAccHints(const std::string &spec)
{
    auto profiler = makePredictor(spec);
    ProfileDb profile;
    SimOptions options;
    options.maxBranches = testProfileBranches;
    options.profile = &profile;
    ReplayBuffer::Cursor cursor = testBuffer().cursor();
    simulate(*profiler, cursor, options);
    return selectStaticAcc(profile);
}

/** A hint on every site of the test buffer: under NoShift no record
 * reaches the dynamic predictor. */
const HintDb &
everySiteHints()
{
    static const HintDb hints = [] {
        ReplayBuffer::Cursor cursor = testBuffer().cursor();
        const ProfileDb profile =
            ProfileDb::collect(cursor, testBuffer().size());
        HintDb out;
        for (const auto &[pc, counts] : profile.entries())
            out.insert(pc, counts.majorityTaken());
        return out;
    }();
    return hints;
}

/** Ends before some of the test buffer's sites first execute. */
constexpr Count tableWarmup = 3'000;

class FastPathTables : public ::testing::TestWithParam<KernelPredictor>
{};

TEST_P(FastPathTables, EveryTableMatchesTheVirtualLoop)
{
    // SimStats.collisions sums a predictor's tables, so a kernel that
    // credited one table's collisions to another would keep every
    // total equal; compare each table's own statistics in the plain,
    // gang and solo shapes, with a warmup that ends before some sites
    // first execute (agree latches their bias bits while measured).
    const std::string spec = GetParam().name() + ":2048";
    const ReplayBuffer &buffer = testBuffer();
    const SiteIndex sites = SiteIndex::build(buffer);
    SimOptions options;
    options.warmupBranches = tableWarmup;
    options.maxBranches = testEvalBranches - tableWarmup;

    std::set<Addr> warm_sites;
    BranchRecord record;
    for (Count i = 0; i < tableWarmup; ++i) {
        buffer.get(i, record);
        warm_sites.insert(record.pc);
    }
    ASSERT_LT(warm_sites.size(), sites.siteCount());

    const auto oracle = [&](BranchPredictor &predictor,
                            ProfileDb *profile,
                            const SimOptions &window) {
        SimOptions with = window;
        with.profile = profile;
        ReplayBuffer::Cursor cursor = buffer.cursor();
        return simulate(predictor, cursor, with);
    };

    {
        SCOPED_TRACE("plain");
        auto expected = makePredictor(spec);
        oracle(*expected, nullptr, options);
        auto got = makePredictor(spec);
        bool used_simd = false;
        simulateReplay(*got, buffer, options, nullptr, &used_simd);
        EXPECT_TRUE(used_simd);
        expectSameTables(*expected, *got);
        if (auto *agree = dynamic_cast<Agree *>(got.get())) {
            EXPECT_GT(agree->biasBitCount(), warm_sites.size());
        }
    }

    // Each member steps its own record stream. Members whose hint
    // shares differ — none, Static_95, Static_Acc and every site —
    // run under each shift policy (the unhinted one in a gang of its
    // own under a shifting policy), over a window whose warmup and end
    // fall inside a 16-record batch and one shorter than a batch.
    // Under NoShift the last member's stream is empty.
    const HintDb no_hints;
    const HintDb acc_hints = testAccHints(spec);
    ASSERT_GT(acc_hints.size(), testHints().size());
    const std::vector<const HintDb *> shares = {
        &no_hints, &testHints(), &acc_hints, &everySiteHints()};
    const std::vector<std::pair<Count, Count>> windows = {
        {tableWarmup, testEvalBranches - tableWarmup - 5},
        {tableWarmup + 1, 9}};
    const ShiftPolicy policies[] = {ShiftPolicy::NoShift,
                                    ShiftPolicy::ShiftOutcome,
                                    ShiftPolicy::ShiftPrediction};
    for (const auto &[warmup, max] : windows) {
        SimOptions window = options;
        window.warmupBranches = warmup;
        window.maxBranches = max;
        for (const ShiftPolicy shift : policies) {
            SCOPED_TRACE("gang " + shiftPolicyName(shift) + " warmup " +
                         std::to_string(warmup) + " max " +
                         std::to_string(max));
            std::vector<std::unique_ptr<CombinedPredictor>> members;
            std::vector<FusedSim> sims(shares.size());
            for (std::size_t m = 0; m < shares.size(); ++m) {
                members.push_back(std::make_unique<CombinedPredictor>(
                    makePredictor(spec), *shares[m], shift));
                sims[m].predictor = members.back().get();
                sims[m].options = window;
            }
            simulateReplayFused(sims, buffer, &sites);
            for (std::size_t m = 0; m < shares.size(); ++m) {
                SCOPED_TRACE("member " + std::to_string(m));
                CombinedPredictor expected(makePredictor(spec),
                                           *shares[m], shift);
                const SimStats want = oracle(expected, nullptr, window);
                EXPECT_TRUE(sims[m].usedSimd);
                expectSameStats(want, sims[m].stats);
                expectSameTables(expected, *members[m]);
            }
        }
    }

    // A hinted sim with a profile and an alias sink runs alone; its
    // hinted sites' profile outcomes come from the window's totals.
    for (const auto &[warmup, max] : windows) {
        SimOptions window = options;
        window.warmupBranches = warmup;
        window.maxBranches = max;
        for (const ShiftPolicy shift : policies) {
            for (const HintDb *hints : {&acc_hints, &everySiteHints()}) {
                SCOPED_TRACE("solo " + shiftPolicyName(shift) + " " +
                             std::to_string(hints->size()) +
                             " hints, warmup " + std::to_string(warmup) +
                             " max " + std::to_string(max));
                CombinedPredictor expected(makePredictor(spec), *hints,
                                           shift);
                ContextAliasSink expected_sink(1);
                expected.attachAliasSink(&expected_sink);
                ProfileDb expected_profile;
                const SimStats want =
                    oracle(expected, &expected_profile, window);

                CombinedPredictor got(makePredictor(spec), *hints, shift);
                ContextAliasSink got_sink(1);
                got.attachAliasSink(&got_sink);
                ProfileDb got_profile;
                std::vector<FusedSim> sims(1);
                sims[0].predictor = &got;
                sims[0].options = window;
                sims[0].options.profile = &got_profile;
                simulateReplayFused(sims, buffer, &sites);
                EXPECT_TRUE(sims[0].usedSimd);
                expectSameStats(want, sims[0].stats);
                expectSameTables(expected, got);
                expectSameProfile(expected_profile, got_profile);
                expectSameAliasMatrix(expected_sink.cells(),
                                      got_sink.cells());
            }
        }
    }

    if (GetParam().name() == "bimode") {
        // The direction tables' lookups follow the choice counter.
        auto predictor = makePredictor(spec);
        simulateReplay(*predictor, buffer, options);
        const std::vector<const CounterTable *> tables =
            tablesOf(*predictor);
        EXPECT_GT(tables[1]->stats().lookups, 0u);
        EXPECT_GT(tables[2]->stats().lookups, 0u);
        EXPECT_NE(tables[1]->stats().lookups, tables[2]->stats().lookups);
        EXPECT_EQ(tables[1]->stats().lookups + tables[2]->stats().lookups,
                  tables[0]->stats().lookups);
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FastPathTables,
                         ::testing::ValuesIn(allKernelPredictors()),
                         [](const auto &info) {
                             return info.param.name();
                         });

} // namespace
} // namespace bpsim
