/**
 * @file
 * google-benchmark microbenchmarks for the simulation engine itself:
 * the virtual-dispatch loop (the oracle) vs the batch kernels, per
 * kernel-visited predictor (the paper's five kinds, TAGE, the hashed
 * perceptron and agree, each named by its spec string), over one
 * materialized trace. Items processed are simulated branches, so the
 * reported rate is branches/second.
 *
 * Plain-shape variants per predictor (no hints/profile):
 *  - virtual: simulate() over a replay cursor
 *  - batch:   simulateReplay(), the batch kernels (for agree, which
 *             keeps per-site bias bits, this includes building the
 *             trace's site index)
 *
 * Fused-shape variants per predictor (simulateReplayFused over a site
 * index, the experiment runner's hot path):
 *  - gang:       1 unhinted + 3 Static_95 members
 *  - dense:      profile collection onto dense site arrays
 *  - attributed: a scenario evaluation's lone sim, Static_95 hints
 *                with a profile and a ContextAliasSink attached
 *
 * Invoked as `microbench_engine --batch-gate` the binary instead runs
 * the CI throughput gate: it times the virtual loop and the batch
 * kernels side by side for the plain, gang and attributed shapes and
 * exits nonzero when the batch kernels regress below the virtual loop
 * in any gate group (per-shape aggregate over the group, 5% noise
 * tolerance, best of three runs).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/combined_predictor.hh"
#include "core/engine.hh"
#include "predictor/context_alias.hh"
#include "predictor/factory.hh"
#include "profile/profile_db.hh"
#include "staticsel/selection.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"

namespace
{

using namespace bpsim;

constexpr Count traceBranches = 1 << 18;

/** Spec string of @p name at the benchmark's 8KB budget. */
std::string
specOf(const char *name)
{
    return std::string(name) + ":8192";
}

/** One materialized gcc/ref trace shared by every benchmark. */
const ReplayBuffer &
trace()
{
    static const ReplayBuffer buffer = [] {
        SyntheticProgram program =
            makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
        return ReplayBuffer::materialize(program, traceBranches);
    }();
    return buffer;
}

/** The trace's site enumeration (fused-path acceleration input). */
const SiteIndex &
sites()
{
    static const SiteIndex index = SiteIndex::build(trace());
    return index;
}

/** Bias-only profile of the trace (feeds Static_95 selection). */
const ProfileDb &
biasProfile()
{
    static const ProfileDb profile = [] {
        auto cursor = trace().cursor();
        return ProfileDb::collect(cursor, traceBranches);
    }();
    return profile;
}

/** Static_95 hint database over the trace (kind-independent). */
const HintDb &
static95Hints()
{
    static const HintDb hints = selectStatic95(biasProfile());
    return hints;
}

void
virtualThroughput(benchmark::State &state, const char *name)
{
    auto predictor = makePredictor(specOf(name));
    const ReplayBuffer &buffer = trace();
    for (auto _ : state) {
        auto cursor = buffer.cursor();
        benchmark::DoNotOptimize(
            simulate(*predictor, cursor).mispredictions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * buffer.size()));
}

void
batchThroughput(benchmark::State &state, const char *name)
{
    auto predictor = makePredictor(specOf(name));
    const ReplayBuffer &buffer = trace();
    for (auto _ : state) {
        bool used_simd = false;
        const SimStats stats = simulateReplay(*predictor, buffer, {},
                                              nullptr, &used_simd);
        if (!used_simd)
            state.SkipWithError("unexpected dispatch path");
        benchmark::DoNotOptimize(stats.mispredictions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * buffer.size()));
}

/**
 * The experiment runner's evaluation shape: one unhinted member and
 * three Static_95 members of the same predictor, fused over one trace
 * walk. All four share one gang; the unhinted member's hint codes
 * are all zero.
 */
struct GangFixture
{
    explicit GangFixture(const char *name)
    {
        for (int member = 0; member < 4; ++member) {
            const bool hinted = member != 0;
            predictors.push_back(std::make_unique<CombinedPredictor>(
                makePredictor(specOf(name)),
                hinted ? static95Hints() : HintDb{},
                ShiftPolicy::NoShift));
            FusedSim sim;
            sim.predictor = predictors.back().get();
            sims.push_back(sim);
        }
    }

    /** The same members, each simulated alone by the virtual loop. */
    void
    runVirtual()
    {
        for (FusedSim &sim : sims) {
            auto cursor = trace().cursor();
            benchmark::DoNotOptimize(
                simulate(*sim.predictor, cursor).mispredictions);
        }
    }

    std::vector<std::unique_ptr<BranchPredictor>> predictors;
    std::vector<FusedSim> sims;
};

void
fusedGangThroughput(benchmark::State &state, const char *name)
{
    GangFixture fixture(name);
    for (auto _ : state) {
        simulateReplayFused(fixture.sims, trace(), &sites());
        for (const FusedSim &sim : fixture.sims) {
            if (!sim.usedSimd)
                state.SkipWithError("unexpected dispatch path");
        }
        benchmark::DoNotOptimize(
            fixture.sims.front().stats.mispredictions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * trace().size() * fixture.sims.size()));
}

/** The profile phase's dense shape: outcome and prediction counts
 * accumulated onto site-indexed arrays during the replay. */
void
fusedDenseThroughput(benchmark::State &state, const char *name)
{
    auto predictor = makePredictor(specOf(name));
    ProfileDb profile;
    std::vector<FusedSim> sims(1);
    sims[0].predictor = predictor.get();
    sims[0].options.profile = &profile;

    for (auto _ : state) {
        simulateReplayFused(sims, trace(), &sites());
        if (!sims[0].usedSimd)
            state.SkipWithError("unexpected dispatch path");
        benchmark::DoNotOptimize(sims[0].stats.mispredictions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * trace().size()));
}

/**
 * A scenario evaluation's shape: one Static_95-hinted sim collecting a
 * profile with a ContextAliasSink attached, which the engine runs
 * alone on the batch kernels' solo shape.
 */
struct AttributedFixture
{
    explicit AttributedFixture(const char *name)
        : predictor(makePredictor(specOf(name)), static95Hints(),
                    ShiftPolicy::NoShift)
    {
        predictor.attachAliasSink(&sink);
        sims[0].predictor = &predictor;
        sims[0].options.profile = &profile;
    }

    /** The same sim simulated by the virtual loop. */
    void
    runVirtual()
    {
        auto cursor = trace().cursor();
        SimOptions options;
        options.profile = &profile;
        benchmark::DoNotOptimize(
            simulate(predictor, cursor, options).mispredictions);
    }

    void runBatch() { simulateReplayFused(sims, trace(), &sites()); }

    CombinedPredictor predictor;
    ContextAliasSink sink{1};
    ProfileDb profile;
    std::vector<FusedSim> sims = std::vector<FusedSim>(1);
};

void
fusedAttributedThroughput(benchmark::State &state, const char *name)
{
    AttributedFixture fixture(name);
    for (auto _ : state) {
        fixture.runBatch();
        if (!fixture.sims[0].usedSimd)
            state.SkipWithError("unexpected dispatch path");
        benchmark::DoNotOptimize(fixture.sims[0].stats.mispredictions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * trace().size()));
}

/**
 * The gate's predictor groups, each held to the tolerance on its own
 * per-shape aggregate: the five paper schemes together, then TAGE,
 * the hashed perceptron and agree each alone. Their virtual loops
 * cost differently from the paper schemes' per branch (TAGE's and the
 * perceptron's several times more, agree's bias-bit map lookup on top
 * of gshare's), so in a shared total they would hide a paper-scheme
 * regression, and one could hide another.
 */
struct GateGroup
{
    const char *label;
    std::vector<const char *> predictors;
};

const GateGroup gateGroups[] = {
    {"paper", {"bimodal", "ghist", "gshare", "bimode", "2bcgskew"}},
    {"tage", {"tage"}},
    {"perceptron", {"perceptron"}},
    {"agree", {"agree"}},
};

/** Seconds of wall time for one full pass of @p body. */
template <typename Body>
double
timeOnce(const Body &body)
{
    const auto begin = std::chrono::steady_clock::now();
    body();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - begin).count();
}

/** Best (smallest) wall time of three passes. */
template <typename Body>
double
bestOfThree(const Body &body)
{
    double best = timeOnce(body);
    for (int run = 0; run < 2; ++run)
        best = std::min(best, timeOnce(body));
    return best;
}

/**
 * The CI throughput gate: the batch kernels must not regress below
 * the virtual loop on any of the three engine shapes in any gate group
 * (aggregate over the group's predictors; 5% tolerance absorbs
 * machine noise).
 *
 * @return the process exit code
 */
int
runBatchGate()
{
    constexpr double tolerance = 0.95;
    const Count records = trace().size();
    bool pass = true;

    const auto report = [&](const GateGroup &group, const char *shape,
                            double virtual_seconds,
                            double batch_seconds, Count branches) {
        const double virtual_rate = branches / virtual_seconds;
        const double batch_rate = branches / batch_seconds;
        const bool ok = batch_rate >= virtual_rate * tolerance;
        std::printf("%-10s %-10s virtual %8.1fM/s   batch %8.1fM/s   "
                    "%5.2fx  %s\n",
                    group.label, shape, virtual_rate / 1e6,
                    batch_rate / 1e6, batch_rate / virtual_rate,
                    ok ? "ok" : "REGRESSED");
        pass = pass && ok;
    };

    std::printf("batch-kernel throughput gate "
                "(aggregate per group, best of 3)\n");

    for (const GateGroup &group : gateGroups) {
        // Plain shape: no hints or profile. The virtual and batch
        // timings of each predictor run back to back so slow
        // frequency drift on the host biases both sides equally.
        double plain_virtual = 0.0;
        double plain_batch = 0.0;
        for (const char *name : group.predictors) {
            auto predictor = makePredictor(specOf(name));
            plain_virtual += bestOfThree([&] {
                auto cursor = trace().cursor();
                benchmark::DoNotOptimize(
                    simulate(*predictor, cursor).mispredictions);
            });
            plain_batch += bestOfThree([&] {
                benchmark::DoNotOptimize(
                    simulateReplay(*predictor, trace()).mispredictions);
            });
        }
        report(group, "plain", plain_virtual, plain_batch,
               records * group.predictors.size());

        // Gang shape: the fused evaluation pass against its members
        // simulated one by one.
        double gang_virtual = 0.0;
        double gang_batch = 0.0;
        Count gang_branches = 0;
        for (const char *name : group.predictors) {
            GangFixture fixture(name);
            gang_virtual += bestOfThree([&] { fixture.runVirtual(); });
            gang_batch += bestOfThree([&] {
                simulateReplayFused(fixture.sims, trace(), &sites());
            });
            gang_branches += records * fixture.sims.size();
        }
        report(group, "gang", gang_virtual, gang_batch, gang_branches);

        // Attributed shape: a scenario evaluation's lone sim against
        // the same sim simulated by the virtual loop.
        double attributed_virtual = 0.0;
        double attributed_batch = 0.0;
        for (const char *name : group.predictors) {
            AttributedFixture fixture(name);
            attributed_virtual +=
                bestOfThree([&] { fixture.runVirtual(); });
            attributed_batch += bestOfThree([&] { fixture.runBatch(); });
        }
        report(group, "attributed", attributed_virtual, attributed_batch,
               records * group.predictors.size());
    }

    std::printf("gate: %s\n", pass ? "pass" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace

#define BPSIM_ENGINE_BENCH(name, spec)                                 \
    BENCHMARK_CAPTURE(virtualThroughput, name##_virtual, spec)         \
        ->Unit(benchmark::kMillisecond);                               \
    BENCHMARK_CAPTURE(batchThroughput, name##_batch, spec)             \
        ->Unit(benchmark::kMillisecond);                               \
    BENCHMARK_CAPTURE(fusedGangThroughput, name##_gang, spec)          \
        ->Unit(benchmark::kMillisecond);                               \
    BENCHMARK_CAPTURE(fusedDenseThroughput, name##_dense, spec)        \
        ->Unit(benchmark::kMillisecond);                               \
    BENCHMARK_CAPTURE(fusedAttributedThroughput, name##_attributed,    \
                      spec)                                            \
        ->Unit(benchmark::kMillisecond)

BPSIM_ENGINE_BENCH(bimodal, "bimodal");
BPSIM_ENGINE_BENCH(ghist, "ghist");
BPSIM_ENGINE_BENCH(gshare, "gshare");
BPSIM_ENGINE_BENCH(bimode, "bimode");
BPSIM_ENGINE_BENCH(gskew2bc, "2bcgskew");
BPSIM_ENGINE_BENCH(tage, "tage");
BPSIM_ENGINE_BENCH(perceptron, "perceptron");
BPSIM_ENGINE_BENCH(agree, "agree");

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--batch-gate") == 0)
            return runBatchGate();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
