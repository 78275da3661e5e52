/**
 * @file
 * Tests for the extensions beyond the paper's core evaluation: the
 * agree predictor (its §3 related-work dynamic alternative), the
 * per-branch collision attribution plumbing, and the collision-aware
 * Static_Alias selection scheme (the paper's stated future work).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hh"
#include "core/experiment.hh"
#include "predictor/agree.hh"
#include "predictor/factory.hh"
#include "predictor/gshare.hh"
#include "predictor/ideal_gshare.hh"
#include "predictor/tournament.hh"
#include "support/bits.hh"
#include "support/random.hh"
#include "trace/memory_trace.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

/** Drive one (pc, outcome) through the protocol. */
bool
step(BranchPredictor &predictor, Addr pc, bool taken)
{
    const bool prediction = predictor.predict(pc);
    predictor.update(pc, taken);
    predictor.updateHistory(taken);
    return prediction == taken;
}

TEST(AgreeTest, FactoryConstructs)
{
    auto predictor = makePredictor("agree:8192");
    EXPECT_EQ(predictor->name(), "agree");
    EXPECT_EQ(predictor->sizeBytes(), 8192u);
}

TEST(AgreeTest, BiasBitLatchesFirstOutcome)
{
    Agree predictor(2048);
    EXPECT_EQ(predictor.biasBitCount(), 0u);
    step(predictor, 0x100, true);
    EXPECT_EQ(predictor.biasBitCount(), 1u);
    // Steady taken branch: counters stay in "agree", predict taken.
    double correct = 0;
    for (int i = 0; i < 500; ++i)
        correct += step(predictor, 0x100, true);
    EXPECT_GT(correct / 500.0, 0.99);
}

TEST(AgreeTest, ResetClearsBiasBits)
{
    Agree predictor(2048);
    step(predictor, 0x100, true);
    predictor.reset();
    EXPECT_EQ(predictor.biasBitCount(), 0u);
}

TEST(AgreeTest, CollidingOppositeBranchesStayConstructive)
{
    // The agree predictor's raison d'etre: two opposite-direction
    // biased branches that share counters both "agree" with their own
    // bias bits, so the sharing does not destroy either. Force heavy
    // sharing with a tiny table and many branches.
    const int branches = 2048;
    auto run = [&](auto &&make) {
        auto predictor = make();
        Rng rng(5);
        Count correct = 0;
        Count total = 0;
        for (int round = 0; round < 60; ++round) {
            for (int b = 0; b < branches; ++b) {
                const Addr pc = 0x1000 + 4 * b;
                const bool majority = (mix64(b) & 1) != 0;
                const bool taken =
                    rng.chance(0.98) ? majority : !majority;
                correct += step(*predictor, pc, taken);
                ++total;
            }
        }
        return static_cast<double>(correct) /
               static_cast<double>(total);
    };
    const double agree = run([] {
        return std::make_unique<Agree>(256);
    });
    const double gshare = run([] {
        return std::make_unique<Gshare>(256);
    });
    EXPECT_GT(agree, gshare + 0.02);
    EXPECT_GT(agree, 0.93);
}

TEST(CollisionAttributionTest, ProfileReceivesCollisions)
{
    // Two branches forced onto the same bimodal counter.
    auto predictor = makePredictor(PredictorKind::Bimodal, 2048);
    MemoryTrace trace;
    const std::size_t entries = 8192; // 2 KB of 2-bit counters
    for (int i = 0; i < 50; ++i) {
        trace.append({0x1000, true, 1});
        trace.append({0x1000 + 4 * entries, false, 1}); // same index
    }
    ProfileDb profile;
    SimOptions options;
    options.profile = &profile;
    simulate(*predictor, trace, options);

    ASSERT_NE(profile.find(0x1000), nullptr);
    // Each lookup after the first alternation collides.
    EXPECT_GT(profile.find(0x1000)->collisions, 40u);
    EXPECT_GT(profile.find(0x1000)->collisionRate(), 0.5);
}

TEST(CollisionAttributionTest, SoloBranchHasNoCollisions)
{
    auto predictor = makePredictor(PredictorKind::Bimodal, 2048);
    MemoryTrace trace;
    for (int i = 0; i < 50; ++i)
        trace.append({0x1000, true, 1});
    ProfileDb profile;
    SimOptions options;
    options.profile = &profile;
    simulate(*predictor, trace, options);
    EXPECT_EQ(profile.find(0x1000)->collisions, 0u);
}

TEST(StaticAliasTest, SelectsContestedBiasedBranchesOnly)
{
    ProfileDb db;
    auto add = [&](Addr pc, double taken_rate, Count collisions) {
        for (int i = 0; i < 100; ++i) {
            db.recordOutcome(pc, i < 100 * taken_rate);
            db.recordPrediction(pc, true);
        }
        db.recordCollisions(pc, collisions);
    };
    add(0xa0, 0.99, 50); // biased + contested: selected
    add(0xb0, 0.99, 0);  // biased + private: not selected
    add(0xc0, 0.50, 80); // contested but unbiased: not selected

    HintDb hints = selectStaticAlias(db);
    EXPECT_EQ(hints.size(), 1u);
    EXPECT_TRUE(hints.contains(0xa0));
}

TEST(StaticAliasTest, SchemeNameRoundTrip)
{
    EXPECT_EQ(staticSchemeName(StaticScheme::StaticAlias),
              "static_alias");
    EXPECT_EQ(staticSchemeFromName("static_alias"),
              StaticScheme::StaticAlias);
}

TEST(StaticAliasTest, EndToEndReducesMispredictions)
{
    // On the alias-dominated gcc stand-in at a small size, the
    // collision-aware scheme must beat the no-static baseline.
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    ExperimentConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 2048;
    config.profileBranches = 400000;
    config.evalBranches = 600000;

    config.scheme = StaticScheme::None;
    const double base =
        runExperimentStreams(program, program, config).stats.mispKi();
    config.scheme = StaticScheme::StaticAlias;
    const ExperimentResult with =
        runExperimentStreams(program, program, config);

    EXPECT_GT(with.hintCount, 10u);
    EXPECT_LT(with.stats.mispKi(), base);
}

TEST(TournamentTest, CanonicalSizing)
{
    // A ~4 KB budget reproduces the 21264 configuration: 1K local
    // histories, 4K-entry global and choice tables.
    Tournament predictor(4096);
    EXPECT_EQ(predictor.localHistoryEntries(), 1024u);
    EXPECT_EQ(predictor.globalEntries(), 4096u);
    EXPECT_LE(predictor.sizeBytes(), 4096u);
    EXPECT_GE(predictor.sizeBytes(), 3000u);
}

TEST(TournamentTest, LocalComponentLearnsPerBranchPattern)
{
    // A short repeating per-branch pattern is invisible to the
    // global component when interleaved with noise branches, but the
    // local history nails it.
    Tournament predictor(4096);
    Rng rng(9);
    Count correct = 0;
    Count measured = 0;
    for (int i = 0; i < 30000; ++i) {
        // Noise branch with random outcome.
        const Addr noise_pc = 0x9000 + 4 * rng.nextBelow(64);
        const bool noise_taken = rng.chance(0.5);
        predictor.predict(noise_pc);
        predictor.update(noise_pc, noise_taken);
        predictor.updateHistory(noise_taken);

        // Pattern branch: period-3 TTN.
        const bool taken = i % 3 != 2;
        const bool prediction = predictor.predict(0x100);
        predictor.update(0x100, taken);
        predictor.updateHistory(taken);
        if (i > 5000) {
            ++measured;
            correct += prediction == taken;
        }
    }
    EXPECT_GT(static_cast<double>(correct) / measured, 0.95);
}

TEST(TournamentTest, FactoryAndReset)
{
    auto predictor = makePredictor("tournament:8192");
    EXPECT_EQ(predictor->name(), "tournament");
    for (int i = 0; i < 100; ++i)
        step(*predictor, 0x100, true);
    const bool warm = predictor->predict(0x100);
    predictor->reset();
    predictor->reset(); // idempotent
    for (int i = 0; i < 100; ++i)
        step(*predictor, 0x100, true);
    EXPECT_EQ(predictor->predict(0x100), warm);
}

TEST(IdealGshareTest, NeverAliases)
{
    // Thousands of conflicting branches: the ideal predictor keeps
    // them all apart and converges to each branch's bias.
    IdealGshare predictor(13);
    Rng rng(11);
    Count correct = 0;
    Count total = 0;
    for (int round = 0; round < 40; ++round) {
        for (int b = 0; b < 4096; ++b) {
            const Addr pc = 0x1000 + 4 * b;
            const bool taken = (mix64(b) & 1) != 0;
            correct += step(predictor, pc, taken);
            ++total;
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.97);
    EXPECT_EQ(predictor.collisionStats().collisions, 0u);
    EXPECT_GT(predictor.tableEntries(), 4000u);
}

TEST(IdealGshareTest, LowerBoundsRealGshare)
{
    // On a real workload the ideal predictor must not lose to the
    // same-history real gshare.
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    SimOptions options;
    options.maxBranches = 300000;

    Gshare real(4096); // 13-bit history
    const double real_misp =
        simulate(real, program, options).mispKi();
    IdealGshare ideal(13);
    const double ideal_misp =
        simulate(ideal, program, options).mispKi();
    EXPECT_LT(ideal_misp, real_misp);
}

} // namespace
} // namespace bpsim
