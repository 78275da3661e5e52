/**
 * @file
 * Property tests for the tagged-geometric predictor family: TAGE's
 * allocation/useful-bit/provider mechanics, the folded-history (CSR)
 * invariant, the hashed perceptron's threshold-gated training and
 * weight saturation bounds, and checkpoint fingerprints for
 * registry-constructed predictors. The batch-kernel differentials
 * replay both predictors at sizes and aging periods the goldens never
 * reach, through every batch shape, against the virtual simulate()
 * loop.
 *
 * Streams are generated from a fixed-seed xorshift so every property
 * is checked over a deterministic but adversarial outcome sequence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/combined_predictor.hh"
#include "core/engine.hh"
#include "core/runner.hh"
#include "oracle.hh"
#include "predictor/long_history.hh"
#include "predictor/perceptron.hh"
#include "predictor/tage.hh"
#include "staticsel/selection.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"
#include "workload/synthetic_program.hh"

namespace bpsim
{
namespace
{

/** Deterministic stream source (xorshift64). */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

    bool bit() { return (next() & 1) != 0; }

    /** A plausible branch pc from a small pool of sites. */
    Addr
    pc()
    {
        return 0x4000 + (next() % 97) * instructionBytes;
    }

  private:
    std::uint64_t state;
};

/**
 * One protocol step: predict, update with the stream outcome, push
 * history. Returns whether the prediction was correct.
 */
template <typename P>
bool
step(P &predictor, Addr pc, bool taken)
{
    const bool predicted = predictor.predict(pc);
    predictor.update(pc, taken);
    predictor.updateHistory(taken);
    return predicted == taken;
}

TEST(FoldedHistoryTest, IncrementalFoldMatchesRecompute)
{
    // Window/fold widths covering every shape TAGE instantiates:
    // dividing, non-dividing, fold == window, single-bit folds.
    const struct
    {
        BitCount window, fold;
    } shapes[] = {{10, 7}, {20, 8}, {40, 11}, {80, 11},
                  {80, 8},  {64, 8}, {10, 10}, {7, 1}};

    for (const auto &shape : shapes) {
        LongHistory history(128);
        FoldedHistory fold(shape.window, shape.fold);
        Stream stream(0xf01dedu + shape.window * 131 + shape.fold);
        for (int i = 0; i < 4096; ++i) {
            const bool in = stream.bit();
            const bool out = history.bit(shape.window - 1);
            history.push(in);
            fold.update(in, out);
            ASSERT_EQ(fold.value(), fold.recompute(history))
                << "window=" << shape.window
                << " fold=" << shape.fold << " step=" << i;
        }
    }
}

TEST(TageTest, FoldsTrackTheLongHistoryThroughTheProtocol)
{
    Tage tage(2048);
    Stream stream(0x7a6e);
    for (int i = 0; i < 20'000; ++i)
        step(tage, stream.pc(), stream.bit());

    for (unsigned b = 0; b < Tage::numBanks; ++b) {
        const FoldedHistory &fold = tage.bankIndexFold(b);
        EXPECT_EQ(fold.windowBits(), tage.bankHistoryBits(b));
        EXPECT_EQ(fold.value(), fold.recompute(tage.longHistory()))
            << "bank " << b;
    }
}

TEST(TageTest, AllocatesOnlyOnMisprediction)
{
    Tage tage(2048);
    Stream stream(0xa110c);
    Count last_allocations = 0;
    bool any_allocation = false;
    for (int i = 0; i < 30'000; ++i) {
        const bool correct = step(tage, stream.pc(), stream.bit());
        const Count now = tage.allocationCount();
        if (correct) {
            ASSERT_EQ(now, last_allocations)
                << "allocation on a correct prediction, step " << i;
        }
        ASSERT_LE(now, last_allocations + 1);
        any_allocation = any_allocation || now != last_allocations;
        last_allocations = now;
    }
    EXPECT_TRUE(any_allocation)
        << "random stream never triggered an allocation";
}

TEST(TageTest, ProviderIsTheLongestTagMatch)
{
    Tage tage(2048);
    Stream stream(0x9807);
    bool any_provider = false;
    for (int i = 0; i < 30'000; ++i) {
        const Addr pc = stream.pc();
        tage.predict(pc);

        const int provider = tage.lastProvider();
        for (unsigned b = 0; b < Tage::numBanks; ++b) {
            // Latched hit flags mirror the stored tags...
            ASSERT_EQ(tage.lastBankHit(b),
                      tage.tagAt(b, tage.lastBankIndex(b)) ==
                          tage.lastBankTag(b))
                << "bank " << b << " step " << i;
            // ...and nothing above the provider matched.
            if (provider >= 0 &&
                b > static_cast<unsigned>(provider)) {
                ASSERT_FALSE(tage.lastBankHit(b))
                    << "bank " << b << " outranks provider "
                    << provider << " at step " << i;
            }
        }
        if (provider >= 0) {
            ASSERT_TRUE(tage.lastBankHit(
                static_cast<unsigned>(provider)));
            any_provider = true;
        }

        const bool taken = stream.bit();
        tage.update(pc, taken);
        tage.updateHistory(taken);
    }
    EXPECT_TRUE(any_provider)
        << "no tagged bank ever provided a prediction";
}

/** Sum of every useful counter across every bank, checking the
 * saturation bound as it goes. */
Count
usefulSum(const Tage &tage)
{
    Count sum = 0;
    for (unsigned b = 0; b < Tage::numBanks; ++b) {
        for (std::size_t i = 0; i < tage.bankEntries(b); ++i) {
            EXPECT_LE(tage.usefulAt(b, i), Tage::usefulMax);
            sum += tage.usefulAt(b, i);
        }
    }
    return sum;
}

TEST(TageTest, UsefulCountersSaturateAndAgePeriodically)
{
    // Same stream, aging effectively off vs. every 1024 updates.
    Tage frozen(2048, Count{1} << 40);
    Tage aged(2048, 1024);
    Stream stream_a(0xa9e5), stream_b(0xa9e5);
    for (int i = 0; i < 30'000; ++i) {
        const Addr pc = stream_a.pc();
        const bool taken = stream_a.bit();
        step(frozen, pc, taken);
        step(aged, stream_b.pc(), stream_b.bit());
    }

    EXPECT_EQ(frozen.agingPasses(), 0u);
    EXPECT_GE(aged.agingPasses(), 29u); // 30'000 / 1024
    // The bound holds everywhere; some entry actually reached it.
    std::uint8_t max_useful = 0;
    for (unsigned b = 0; b < Tage::numBanks; ++b)
        for (std::size_t i = 0; i < frozen.bankEntries(b); ++i)
            max_useful = std::max(max_useful, frozen.usefulAt(b, i));
    EXPECT_EQ(max_useful, Tage::usefulMax);
    // Periodic halving keeps the aged copy's counters strictly
    // leaner than the frozen one's over the same stream.
    EXPECT_LT(usefulSum(aged), usefulSum(frozen));
}

TEST(PerceptronTest, WeightsStayInSaturationBounds)
{
    HashedPerceptron perceptron(512);
    Stream stream(0x3e1);
    for (int i = 0; i < 50'000; ++i)
        step(perceptron, stream.pc(), stream.bit());

    for (unsigned t = 0; t < HashedPerceptron::numTables; ++t) {
        for (std::size_t i = 0; i < perceptron.tableEntries(); ++i) {
            ASSERT_GE(perceptron.weightAt(t, i), -128)
                << "table " << t << " entry " << i;
            ASSERT_LE(perceptron.weightAt(t, i), 127)
                << "table " << t << " entry " << i;
        }
    }
}

TEST(PerceptronTest, TrainingIsThresholdGated)
{
    HashedPerceptron perceptron(2048);
    Stream stream(0x7177);
    int confident_correct = 0;
    for (int i = 0; i < 30'000; ++i) {
        const Addr pc = stream.pc();
        const bool taken = stream.bit();
        const bool predicted = perceptron.predict(pc);
        const int sum_before = perceptron.lastSum();
        perceptron.update(pc, taken);

        // Re-predicting the same pc before any history push reuses
        // the same table indices, so the sum moves iff update()
        // trained the selected weights.
        perceptron.predict(pc);
        const int sum_after = perceptron.lastSum();
        const int magnitude =
            sum_before < 0 ? -sum_before : sum_before;
        if (predicted == taken &&
            magnitude > perceptron.threshold()) {
            ASSERT_EQ(sum_after, sum_before)
                << "trained a confident correct prediction, step "
                << i;
            ++confident_correct;
        } else if (taken) {
            ASSERT_GT(sum_after, sum_before) << "step " << i;
        } else {
            ASSERT_LT(sum_after, sum_before) << "step " << i;
        }

        perceptron.updateHistory(taken);
    }
    EXPECT_GT(confident_correct, 0);
}

ExperimentConfig
taggedConfig(const std::string &predictor, StaticScheme scheme)
{
    ExperimentConfig config;
    config.predictor = predictor;
    config.sizeBytes = 2048;
    config.scheme = scheme;
    config.profileBranches = 30'000;
    config.evalBranches = 60'000;
    return config;
}

/** The gcc trace the batch-kernel differentials replay: long enough
 * to cross fused-walk block boundaries (segment flushes). */
const ReplayBuffer &
kernelBuffer()
{
    static const ReplayBuffer buffer = [] {
        SyntheticProgram program =
            makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
        return ReplayBuffer::materialize(program, 150'000);
    }();
    return buffer;
}

/** Two different Static_95 hint sets over the trace (whole-trace and
 * first-fifth bias), so a gang's members diverge. */
std::vector<HintDb>
kernelHintSets()
{
    std::vector<HintDb> sets;
    for (const Count window : {Count{150'000}, Count{30'000}}) {
        ReplayBuffer::Cursor cursor = kernelBuffer().cursor();
        sets.push_back(selectStatic95(ProfileDb::collect(cursor, window)));
    }
    return sets;
}

/**
 * Every piece of TAGE state the batch kernels carry: aging and
 * allocation counts, each bank's tags and useful counters, the long
 * history and the index folds; a probe predict() then compares what
 * the counters, tag folds and base table yield for a spread of PCs.
 */
void
expectSameState(Tage &expected, Tage &got)
{
    EXPECT_EQ(expected.agingPasses(), got.agingPasses());
    EXPECT_EQ(expected.allocationCount(), got.allocationCount());
    for (unsigned b = 0; b < Tage::numBanks; ++b) {
        SCOPED_TRACE("bank " + std::to_string(b));
        EXPECT_EQ(expected.bankIndexFold(b).value(),
                  got.bankIndexFold(b).value());
        for (std::size_t i = 0; i < expected.bankEntries(b); ++i) {
            ASSERT_EQ(expected.tagAt(b, i), got.tagAt(b, i)) << i;
            ASSERT_EQ(expected.usefulAt(b, i), got.usefulAt(b, i)) << i;
        }
    }
    const LongHistory &history = expected.longHistory();
    for (BitCount j = 0; j < history.width(); ++j)
        EXPECT_EQ(history.bit(j), got.longHistory().bit(j)) << j;

    Stream probes(0x7a9e);
    for (int n = 0; n < 64; ++n) {
        const Addr pc = probes.pc();
        EXPECT_EQ(expected.predict(pc), got.predict(pc));
        EXPECT_EQ(expected.lastProvider(), got.lastProvider());
        for (unsigned b = 0; b < Tage::numBanks; ++b) {
            EXPECT_EQ(expected.lastBankIndex(b), got.lastBankIndex(b));
            EXPECT_EQ(expected.lastBankTag(b), got.lastBankTag(b));
        }
    }
}

/** Every weight, then probe sums (which read the history). */
void
expectSameState(HashedPerceptron &expected, HashedPerceptron &got)
{
    for (unsigned t = 0; t < HashedPerceptron::numTables; ++t) {
        for (std::size_t i = 0; i < expected.tableEntries(); ++i)
            ASSERT_EQ(expected.weightAt(t, i), got.weightAt(t, i))
                << "table " << t << " entry " << i;
    }
    Stream probes(0x7a9e);
    for (int n = 0; n < 64; ++n) {
        const Addr pc = probes.pc();
        EXPECT_EQ(expected.predict(pc), got.predict(pc));
        EXPECT_EQ(expected.lastSum(), got.lastSum());
    }
}

/**
 * Replay fresh predictors from @p make through the three batch shapes
 * — plain simulateReplay, a dense-profile pass and a hinted gang
 * through simulateReplayFused under every shift policy — and require
 * stats, collision split, profile counts and predictor state equal to
 * the virtual simulate() loop's.
 */
template <typename Make>
void
expectBatchShapesMatchOracle(const Make &make)
{
    using P = typename decltype(make())::element_type;
    const ReplayBuffer &buffer = kernelBuffer();
    SimOptions options;
    options.warmupBranches = 5'000;

    {
        SCOPED_TRACE("plain");
        auto expected = make();
        ReplayBuffer::Cursor cursor = buffer.cursor();
        const SimStats oracle_stats = simulate(*expected, cursor, options);
        auto got = make();
        bool used_simd = false;
        const SimStats stats =
            simulateReplay(*got, buffer, options, nullptr, &used_simd);
        EXPECT_TRUE(used_simd);
        oracle::expectSameStats(oracle_stats, stats);
        expectSameState(*expected, *got);
    }

    {
        SCOPED_TRACE("dense profile");
        auto expected = make();
        ProfileDb expected_profile;
        SimOptions profiled = options;
        profiled.profile = &expected_profile;
        ReplayBuffer::Cursor cursor = buffer.cursor();
        const SimStats oracle_stats =
            simulate(*expected, cursor, profiled);
        auto got = make();
        ProfileDb profile;
        profiled.profile = &profile;
        bool used_simd = false;
        const SimStats stats =
            simulateReplay(*got, buffer, profiled, nullptr, &used_simd);
        EXPECT_TRUE(used_simd);
        oracle::expectSameStats(oracle_stats, stats);
        oracle::expectSameProfile(expected_profile, profile);
        expectSameState(*expected, *got);
    }

    const std::vector<HintDb> hint_sets = kernelHintSets();
    for (const ShiftPolicy policy :
         {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome,
          ShiftPolicy::ShiftPrediction}) {
        SCOPED_TRACE(std::string("hinted gang, ") +
                     shiftPolicyName(policy));
        std::vector<std::unique_ptr<CombinedPredictor>> expected;
        std::vector<std::unique_ptr<CombinedPredictor>> got;
        std::vector<FusedSim> sims;
        for (const HintDb &hints : hint_sets) {
            expected.push_back(
                std::make_unique<CombinedPredictor>(make(), hints, policy));
            got.push_back(
                std::make_unique<CombinedPredictor>(make(), hints, policy));
            FusedSim sim;
            sim.predictor = got.back().get();
            sim.options = options;
            sims.push_back(sim);
        }
        simulateReplayFused(sims, buffer);
        for (std::size_t m = 0; m < sims.size(); ++m) {
            SCOPED_TRACE("member " + std::to_string(m));
            ReplayBuffer::Cursor cursor = buffer.cursor();
            const SimStats oracle_stats =
                simulate(*expected[m], cursor, options);
            EXPECT_TRUE(sims[m].usedSimd);
            EXPECT_GT(sims[m].stats.staticPredicted, 0u);
            oracle::expectSameStats(oracle_stats, sims[m].stats);
            expectSameState(
                dynamic_cast<P &>(expected[m]->dynamicComponent()),
                dynamic_cast<P &>(got[m]->dynamicComponent()));
        }
    }
}

TEST(TaggedKernelTest, TageAgingAndAllocationMatchTheVirtualLoop)
{
    // A 1024-update aging period makes aging fire ~150 times over the
    // trace; the default 2^18 never fires in the goldens. The 64KB
    // size also takes the prefetching path of the larger tables.
    for (const std::size_t bytes : {std::size_t{2048}, std::size_t{65536}}) {
        SCOPED_TRACE(std::to_string(bytes) + " bytes");
        const auto make = [bytes] {
            return std::make_unique<Tage>(bytes, Count{1024});
        };
        expectBatchShapesMatchOracle(make);

        Tage reference(bytes, Count{1024});
        ReplayBuffer::Cursor cursor = kernelBuffer().cursor();
        simulate(reference, cursor);
        EXPECT_GT(reference.agingPasses(), 100u);
        EXPECT_GT(reference.allocationCount(), 1000u);
    }
}

TEST(TaggedKernelTest, PerceptronMatchesTheVirtualLoopAcrossTableWidths)
{
    // 8-, 256- and 8192-entry tables: index widths of 3, 8 and 13
    // bits change how many slices every history fold takes.
    for (const std::size_t bytes :
         {std::size_t{64}, std::size_t{2048}, std::size_t{65536}}) {
        SCOPED_TRACE(std::to_string(bytes) + " bytes");
        expectBatchShapesMatchOracle(
            [bytes] { return std::make_unique<HashedPerceptron>(bytes); });
    }
}

TEST(TaggedCheckpointTest, RegistryPredictorsFingerprint)
{
    const SyntheticProgram program =
        makeSpecProgram(SpecProgram::Go, InputSet::Ref);

    const std::string tage_fp = cellFingerprint(
        program, taggedConfig("tage", StaticScheme::Static95));
    const std::string perceptron_fp = cellFingerprint(
        program, taggedConfig("perceptron", StaticScheme::Static95));
    ASSERT_FALSE(tage_fp.empty());
    ASSERT_FALSE(perceptron_fp.empty());
    EXPECT_NE(tage_fp, perceptron_fp);

    // Determinism across calls.
    EXPECT_EQ(cellFingerprint(
                  program,
                  taggedConfig("tage", StaticScheme::Static95)),
              tage_fp);

    // Naming a paper predictor through the registry field yields the
    // same fingerprint as the enum route: identity is centralized.
    ExperimentConfig by_kind;
    by_kind.kind = PredictorKind::Gshare;
    by_kind.sizeBytes = 2048;
    by_kind.scheme = StaticScheme::Static95;
    by_kind.profileBranches = 30'000;
    by_kind.evalBranches = 60'000;
    EXPECT_EQ(cellFingerprint(program, by_kind),
              cellFingerprint(
                  program,
                  taggedConfig("gshare", StaticScheme::Static95)));
}

TEST(TaggedCheckpointTest, ResumeRestoresTaggedFamilyCells)
{
    const std::string path =
        ::testing::TempDir() + "tagged_checkpoint.jsonl";
    std::remove(path.c_str());

    const auto run = [&](bool resume) {
        RunnerOptions options;
        options.threads = 2;
        options.checkpointPath = path;
        options.resume = resume;
        ExperimentRunner runner(options);
        const std::size_t program = runner.addProgram(
            makeSpecProgram(SpecProgram::Go, InputSet::Ref));
        for (const char *predictor : {"tage", "perceptron"}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95}) {
                runner.addCell(program,
                               taggedConfig(predictor, scheme));
            }
        }
        return runner.run();
    };

    const MatrixResult executed = run(false);
    for (const CellResult &cell : executed.cells)
        ASSERT_TRUE(cell.ok());
    EXPECT_EQ(executed.restoredCells, 0u);

    const MatrixResult restored = run(true);
    ASSERT_EQ(restored.cells.size(), executed.cells.size());
    EXPECT_EQ(restored.restoredCells, restored.cells.size());
    for (std::size_t i = 0; i < restored.cells.size(); ++i) {
        ASSERT_TRUE(restored.cells[i].ok()) << "cell " << i;
        EXPECT_TRUE(restored.cells[i].restored) << "cell " << i;
        EXPECT_EQ(restored.cells[i].result.stats.mispredictions,
                  executed.cells[i].result.stats.mispredictions)
            << "cell " << i;
        EXPECT_EQ(restored.cells[i].result.hintCount,
                  executed.cells[i].result.hintCount)
            << "cell " << i;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace bpsim
