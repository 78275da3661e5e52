/**
 * @file
 * Unit tests for the static selection module: the three selection
 * schemes, their tunables, and the hint database.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "staticsel/selection.hh"
#include "staticsel/static_hint.hh"

namespace bpsim
{
namespace
{

/** Add a branch with explicit outcome and prediction statistics. */
void
addBranch(ProfileDb &db, Addr pc, Count executed, double taken_rate,
          double accuracy)
{
    const Count taken =
        static_cast<Count>(taken_rate * static_cast<double>(executed));
    const Count correct =
        static_cast<Count>(accuracy * static_cast<double>(executed));
    for (Count i = 0; i < executed; ++i) {
        db.recordOutcome(pc, i < taken);
        db.recordPrediction(pc, i < correct);
    }
}

TEST(HintDbTest, InsertLookupContains)
{
    HintDb db;
    EXPECT_FALSE(db.contains(0x100));
    db.insert(0x100, true);
    db.insert(0x200, false);
    EXPECT_TRUE(db.contains(0x100));
    EXPECT_EQ(db.size(), 2u);

    bool taken = false;
    ASSERT_TRUE(db.lookup(0x100, taken));
    EXPECT_TRUE(taken);
    ASSERT_TRUE(db.lookup(0x200, taken));
    EXPECT_FALSE(taken);
    EXPECT_FALSE(db.lookup(0x300, taken));
}

TEST(HintDbTest, SaveLoadRoundTrip)
{
    HintDb db;
    for (int i = 0; i < 100; ++i)
        db.insert(0x1000 + 4 * i, i % 3 == 0);
    const std::string path = testing::TempDir() + "bpsim_hints_" +
                             std::to_string(::getpid()) + ".db";
    db.save(path);
    const Result<HintDb> result = HintDb::load(path);
    ASSERT_TRUE(result.ok()) << result.error().describe();
    const HintDb &loaded = result.value();
    ASSERT_EQ(loaded.size(), db.size());
    for (const auto &[pc, taken] : db.entries()) {
        bool loaded_taken = !taken;
        ASSERT_TRUE(loaded.lookup(pc, loaded_taken));
        EXPECT_EQ(loaded_taken, taken);
    }
    std::remove(path.c_str());
}

/** Write @p text to a fresh hint file; returns its path. */
std::string
writeHintFile(const std::string &text)
{
    const std::string path = testing::TempDir() + "bpsim_bad_hints_" +
                             std::to_string(::getpid()) + ".db";
    std::ofstream(path) << text;
    return path;
}

/** @p result failed as io_failure, naming @p where. */
void
expectHintLoadFailure(const Result<HintDb> &result,
                      const std::string &where)
{
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::IoFailure);
    EXPECT_NE(result.error().describe().find(where), std::string::npos)
        << result.error().describe();
}

TEST(HintDbTest, MalformedLinesFailAtTheirLine)
{
    // Each bad second line fails the whole load as io_failure naming
    // file:line, where the old reader stopped at it (keeping the
    // lines before) or ended the process.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"0xzz T", "expected"},
        {"# note", "hexadecimal"},
        {"0x104 X", "T or N"},
        {"0x104", "expected"},
        {"0x104 T N", "trailing"},
        {"-0x104 T", "hexadecimal"},
        {"0x1ffffffffffffffff T", "expected"},
        {"", "hexadecimal"},
        {"0x100 N", "earlier line"}};
    for (const auto &[line, problem] : cases) {
        SCOPED_TRACE("line '" + line + "'");
        const std::string path = writeHintFile(
            "0x100 T\n" + line + "\n0x108 N\n0x10c T\n");
        expectHintLoadFailure(HintDb::load(path), path + ":2");
        expectHintLoadFailure(HintDb::load(path), problem);
        std::remove(path.c_str());
    }
    // What save() writes loads back, PC 0 and a CRLF ending included.
    const std::string path = writeHintFile("0 T\n0x104 N\r\n");
    const Result<HintDb> loaded = HintDb::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().size(), 2u);
    EXPECT_TRUE(loaded.value().contains(0));
    std::remove(path.c_str());
}

TEST(HintDbTest, MissingFileIsAnErrorNotAnExit)
{
    expectHintLoadFailure(
        HintDb::load(testing::TempDir() + "bpsim_absent_hints.db"),
        "cannot open hint db");
}

TEST(SchemeNamesTest, RoundTrip)
{
    for (const auto scheme :
         {StaticScheme::None, StaticScheme::Static95,
          StaticScheme::StaticAcc, StaticScheme::StaticFac}) {
        EXPECT_EQ(staticSchemeFromName(staticSchemeName(scheme)),
                  scheme);
    }
    EXPECT_EXIT(staticSchemeFromName("bogus"),
                ::testing::ExitedWithCode(1), "unknown static scheme");
}

TEST(Static95Test, SelectsOnlyAboveCutoff)
{
    ProfileDb db;
    addBranch(db, 0xa0, 1000, 0.99, 0.5);  // selected, taken hint
    addBranch(db, 0xb0, 1000, 0.01, 0.5);  // selected, not-taken hint
    addBranch(db, 0xc0, 1000, 0.90, 0.5);  // below cutoff
    addBranch(db, 0xd0, 1000, 0.955, 0.5); // just above

    HintDb hints = selectStatic95(db);
    EXPECT_EQ(hints.size(), 3u);
    bool taken = false;
    ASSERT_TRUE(hints.lookup(0xa0, taken));
    EXPECT_TRUE(taken);
    ASSERT_TRUE(hints.lookup(0xb0, taken));
    EXPECT_FALSE(taken);
    EXPECT_FALSE(hints.contains(0xc0));
    EXPECT_TRUE(hints.contains(0xd0));
}

TEST(Static95Test, CutoffIsTunable)
{
    ProfileDb db;
    addBranch(db, 0xa0, 1000, 0.90, 0.5);
    SelectionParams params;
    params.cutoffBias = 0.85;
    EXPECT_EQ(selectStatic95(db, params).size(), 1u);
    params.cutoffBias = 0.95;
    EXPECT_EQ(selectStatic95(db, params).size(), 0u);
}

TEST(Static95Test, MinExecutionsFiltersNoise)
{
    ProfileDb db;
    addBranch(db, 0xa0, 4, 1.0, 1.0); // too few executions
    SelectionParams params;
    params.minExecutions = 16;
    EXPECT_EQ(selectStatic95(db, params).size(), 0u);
    params.minExecutions = 2;
    EXPECT_EQ(selectStatic95(db, params).size(), 1u);
}

TEST(StaticAccTest, SelectsBiasAboveAccuracy)
{
    ProfileDb db;
    addBranch(db, 0xa0, 1000, 0.90, 0.70); // bias 0.9 > acc 0.7: yes
    addBranch(db, 0xb0, 1000, 0.90, 0.95); // bias 0.9 < acc: no
    addBranch(db, 0xc0, 1000, 0.10, 0.80); // bias 0.9 > acc 0.8: yes
    HintDb hints = selectStaticAcc(db);
    EXPECT_EQ(hints.size(), 2u);
    EXPECT_TRUE(hints.contains(0xa0));
    EXPECT_FALSE(hints.contains(0xb0));
    bool taken = true;
    ASSERT_TRUE(hints.lookup(0xc0, taken));
    EXPECT_FALSE(taken); // majority direction, not accuracy
}

TEST(StaticAccTest, RequiresPredictionCounts)
{
    ProfileDb db;
    for (int i = 0; i < 100; ++i)
        db.recordOutcome(0xa0, true); // bias 1.0 but never predicted
    EXPECT_EQ(selectStaticAcc(db).size(), 0u);
}

TEST(StaticFacTest, FactorGatesSelection)
{
    ProfileDb db;
    // Static misp = 0.05 * 1000 = 50; dynamic misp = 200.
    addBranch(db, 0xa0, 1000, 0.95, 0.80);
    SelectionParams params;
    params.factor = 2.0; // 50 * 2 = 100 <= 200: selected
    EXPECT_EQ(selectStaticFac(db, params).size(), 1u);
    params.factor = 5.0; // 250 > 200: rejected
    EXPECT_EQ(selectStaticFac(db, params).size(), 0u);
}

TEST(DispatchTest, SelectStaticByScheme)
{
    ProfileDb db;
    addBranch(db, 0xa0, 1000, 0.99, 0.70);
    EXPECT_EQ(selectStatic(StaticScheme::None, db).size(), 0u);
    EXPECT_EQ(selectStatic(StaticScheme::Static95, db).size(), 1u);
    EXPECT_EQ(selectStatic(StaticScheme::StaticAcc, db).size(), 1u);
    EXPECT_EQ(selectStatic(StaticScheme::StaticFac, db).size(), 1u);
}

} // namespace
} // namespace bpsim
