/**
 * @file
 * google-benchmark microbenchmarks for the simulation engine itself:
 * the virtual-dispatch loop (the oracle) vs the batch kernels, per
 * predictor kind, over one materialized trace. Items processed are
 * simulated branches, so the reported rate is branches/second.
 *
 * Plain-shape variants per kind (no hints/profile):
 *  - virtual: simulate() over a replay cursor
 *  - batch:   simulateReplay(), the batch kernels
 *
 * Fused-shape variants per kind (simulateReplayFused over a site
 * index, the experiment runner's hot path):
 *  - gang:  1 unhinted + 3 Static_95 members
 *  - dense: profile collection onto dense site arrays
 *
 * Invoked as `microbench_engine --batch-gate` the binary instead runs
 * the CI throughput gate: it times the virtual loop and the batch
 * kernels side by side over every kind for the plain and gang shapes
 * and exits nonzero when the batch kernels regress below the virtual
 * loop (per-shape aggregate over the five kinds, 5% noise tolerance,
 * best of three runs).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/combined_predictor.hh"
#include "core/engine.hh"
#include "predictor/factory.hh"
#include "profile/profile_db.hh"
#include "staticsel/selection.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"

namespace
{

using namespace bpsim;

constexpr Count traceBranches = 1 << 18;
constexpr std::size_t sizeBytes = 8192;

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
virtualThroughput(benchmark::State &state, PredictorKind kind)
{
    auto predictor = makePredictor(kind, sizeBytes);
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
batchThroughput(benchmark::State &state, PredictorKind kind)
{
    auto predictor = makePredictor(kind, sizeBytes);
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
 * three Static_95 members of the same kind, fused over one trace
 * walk. All four share one gang; the unhinted member's hint codes
 * are all zero.
 */
struct GangFixture
{
    explicit GangFixture(PredictorKind kind)
    {
        for (int member = 0; member < 4; ++member) {
            const bool hinted = member != 0;
            predictors.push_back(std::make_unique<CombinedPredictor>(
                makePredictor(kind, sizeBytes),
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
fusedGangThroughput(benchmark::State &state, PredictorKind kind)
{
    GangFixture fixture(kind);
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
fusedDenseThroughput(benchmark::State &state, PredictorKind kind)
{
    auto predictor = makePredictor(kind, sizeBytes);
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

/** All five paper schemes, for the gate loop. */
constexpr PredictorKind gateKinds[] = {
    PredictorKind::Bimodal, PredictorKind::Ghist,
    PredictorKind::Gshare, PredictorKind::BiMode,
    PredictorKind::TwoBcGskew,
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
 * the virtual loop on either engine shape (aggregate over the five
 * kinds; 5% tolerance absorbs machine noise).
 *
 * @return the process exit code
 */
int
runBatchGate()
{
    constexpr double tolerance = 0.95;
    const Count records = trace().size();
    bool pass = true;

    const auto report = [&](const char *shape, double virtual_seconds,
                            double batch_seconds, Count branches) {
        const double virtual_rate = branches / virtual_seconds;
        const double batch_rate = branches / batch_seconds;
        const bool ok = batch_rate >= virtual_rate * tolerance;
        std::printf("%-6s virtual %8.1fM/s   batch %8.1fM/s   "
                    "%5.2fx  %s\n",
                    shape, virtual_rate / 1e6, batch_rate / 1e6,
                    batch_rate / virtual_rate,
                    ok ? "ok" : "REGRESSED");
        pass = pass && ok;
    };

    std::printf("batch-kernel throughput gate "
                "(aggregate over %zu kinds, best of 3)\n",
                std::size(gateKinds));

    // Plain shape: no hints or profile. The virtual and batch timings
    // of each kind run back to back so slow frequency drift on the
    // host biases both sides equally.
    double plain_virtual = 0.0;
    double plain_batch = 0.0;
    for (const PredictorKind kind : gateKinds) {
        auto predictor = makePredictor(kind, sizeBytes);
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
    report("plain", plain_virtual, plain_batch,
           records * std::size(gateKinds));

    // Gang shape: the fused evaluation pass against its members
    // simulated one by one.
    double gang_virtual = 0.0;
    double gang_batch = 0.0;
    Count gang_branches = 0;
    for (const PredictorKind kind : gateKinds) {
        GangFixture fixture(kind);
        gang_virtual += bestOfThree([&] { fixture.runVirtual(); });
        gang_batch += bestOfThree([&] {
            simulateReplayFused(fixture.sims, trace(), &sites());
        });
        gang_branches += records * fixture.sims.size();
    }
    report("gang", gang_virtual, gang_batch, gang_branches);

    std::printf("gate: %s\n", pass ? "pass" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace

#define BPSIM_ENGINE_BENCH(name, kind)                                 \
    BENCHMARK_CAPTURE(virtualThroughput, name##_virtual,               \
                      PredictorKind::kind)                             \
        ->Unit(benchmark::kMillisecond);                               \
    BENCHMARK_CAPTURE(batchThroughput, name##_batch,                   \
                      PredictorKind::kind)                             \
        ->Unit(benchmark::kMillisecond);                               \
    BENCHMARK_CAPTURE(fusedGangThroughput, name##_gang,                \
                      PredictorKind::kind)                             \
        ->Unit(benchmark::kMillisecond);                               \
    BENCHMARK_CAPTURE(fusedDenseThroughput, name##_dense,              \
                      PredictorKind::kind)                             \
        ->Unit(benchmark::kMillisecond)

BPSIM_ENGINE_BENCH(bimodal, Bimodal);
BPSIM_ENGINE_BENCH(ghist, Ghist);
BPSIM_ENGINE_BENCH(gshare, Gshare);
BPSIM_ENGINE_BENCH(bimode, BiMode);
BPSIM_ENGINE_BENCH(gskew2bc, TwoBcGskew);

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
