/**
 * @file
 * Unit tests for the profile module: per-branch records, database
 * operations, serialisation, merging, cross-input comparison and the
 * §5.1 stability filter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "profile/profile_db.hh"
#include "trace/memory_trace.hh"

namespace bpsim
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return testing::TempDir() + "bpsim_" + tag + "_" +
           std::to_string(::getpid()) + ".profile";
}

TEST(BranchProfileTest, BiasAndMajority)
{
    BranchProfile profile;
    profile.executed = 100;
    profile.taken = 80;
    EXPECT_DOUBLE_EQ(profile.takenRate(), 0.8);
    EXPECT_DOUBLE_EQ(profile.bias(), 0.8);
    EXPECT_TRUE(profile.majorityTaken());

    profile.taken = 20;
    EXPECT_DOUBLE_EQ(profile.bias(), 0.8);
    EXPECT_FALSE(profile.majorityTaken());

    BranchProfile empty;
    EXPECT_DOUBLE_EQ(empty.bias(), 1.0); // never executed: 1 - 0
    EXPECT_DOUBLE_EQ(empty.accuracy(), 0.0);
}

TEST(BranchProfileTest, AccuracyAndMerge)
{
    BranchProfile a;
    a.executed = 10;
    a.taken = 5;
    a.predicted = 10;
    a.correct = 7;
    BranchProfile b;
    b.executed = 30;
    b.taken = 15;
    b.predicted = 30;
    b.correct = 29;
    a += b;
    EXPECT_EQ(a.executed, 40u);
    EXPECT_DOUBLE_EQ(a.accuracy(), 36.0 / 40.0);
}

TEST(ProfileDbTest, RecordingAndLookup)
{
    ProfileDb db;
    db.recordOutcome(0x100, true);
    db.recordOutcome(0x100, true);
    db.recordOutcome(0x100, false);
    db.recordPrediction(0x100, true);
    db.recordPrediction(0x100, false);

    const BranchProfile *profile = db.find(0x100);
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->executed, 3u);
    EXPECT_EQ(profile->taken, 2u);
    EXPECT_EQ(profile->predicted, 2u);
    EXPECT_EQ(profile->correct, 1u);
    EXPECT_EQ(db.find(0x200), nullptr);
    EXPECT_EQ(db.totalExecuted(), 3u);
}

TEST(ProfileDbTest, ExecutedAboveBias)
{
    ProfileDb db;
    for (int i = 0; i < 99; ++i)
        db.recordOutcome(0x100, true); // bias 1.0, 99 execs
    for (int i = 0; i < 100; ++i)
        db.recordOutcome(0x200, i % 2 == 0); // bias 0.5, 100 execs
    EXPECT_EQ(db.executedAboveBias(0.95), 99u);
    EXPECT_EQ(db.executedAboveBias(0.4), 199u);
}

TEST(ProfileDbTest, SaveLoadRoundTrip)
{
    ProfileDb db;
    for (int b = 0; b < 50; ++b) {
        const Addr pc = 0x1000 + 4 * b;
        for (int i = 0; i < b + 1; ++i)
            db.recordOutcome(pc, i % 3 == 0);
        db.recordPrediction(pc, b % 2 == 0);
    }
    const std::string path = tempPath("roundtrip");
    db.save(path);
    const Result<ProfileDb> result = ProfileDb::load(path);
    ASSERT_TRUE(result.ok()) << result.error().describe();
    const ProfileDb &loaded = result.value();
    ASSERT_EQ(loaded.size(), db.size());
    for (const auto &[pc, profile] : db.entries()) {
        const BranchProfile *other = loaded.find(pc);
        ASSERT_NE(other, nullptr);
        EXPECT_EQ(other->executed, profile.executed);
        EXPECT_EQ(other->taken, profile.taken);
        EXPECT_EQ(other->predicted, profile.predicted);
        EXPECT_EQ(other->correct, profile.correct);
    }
    std::remove(path.c_str());
}

TEST(ProfileDbTest, MergeAddAccumulates)
{
    ProfileDb a;
    a.recordOutcome(0x100, true);
    ProfileDb b;
    b.recordOutcome(0x100, false);
    b.recordOutcome(0x200, true);
    a.mergeAdd(b);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a.find(0x100)->executed, 2u);
    EXPECT_EQ(a.find(0x100)->taken, 1u);
}

TEST(ProfileDbTest, CollectFromStream)
{
    MemoryTrace trace;
    for (int i = 0; i < 30; ++i)
        trace.append({0x100, i % 2 == 0, 5});
    ProfileDb db = ProfileDb::collect(trace, 20);
    EXPECT_EQ(db.find(0x100)->executed, 20u);
    EXPECT_EQ(db.find(0x100)->taken, 10u);
}

/** Build a db with one branch at the given taken rate. */
void
addBranch(ProfileDb &db, Addr pc, Count executed, double taken_rate)
{
    const Count taken =
        static_cast<Count>(taken_rate * static_cast<double>(executed));
    for (Count i = 0; i < executed; ++i)
        db.recordOutcome(pc, i < taken);
}

TEST(CompareProfilesTest, CoverageFlipAndDrift)
{
    ProfileDb train;
    ProfileDb ref;
    // Branch A: stable (bias 0.9 in both).
    addBranch(train, 0xa0, 100, 0.9);
    addBranch(ref, 0xa0, 200, 0.9);
    // Branch B: majority flip (0.8 -> 0.2).
    addBranch(train, 0xb0, 100, 0.8);
    addBranch(ref, 0xb0, 100, 0.2);
    // Branch C: only in ref (coverage hole).
    addBranch(ref, 0xc0, 100, 0.5);
    // Branch D: only in train (irrelevant to ref-weighted stats).
    addBranch(train, 0xd0, 100, 0.5);

    const CrossInputStats stats = compareProfiles(train, ref);
    // 2 of 3 ref branches seen with train.
    EXPECT_NEAR(stats.seenWithTrainStatic, 66.7, 0.1);
    // 300 of 400 ref executions covered.
    EXPECT_NEAR(stats.seenWithTrainDynamic, 75.0, 0.1);
    // 1 of the 2 common branches flips.
    EXPECT_NEAR(stats.majorityFlipStatic, 50.0, 0.1);
    // A moved by 0 (<5%); B by 0.6 (>50%).
    EXPECT_NEAR(stats.biasChangeUnder5Static, 50.0, 0.1);
    EXPECT_NEAR(stats.biasChangeOver50Static, 50.0, 0.1);
}

TEST(StableSubsetTest, DropsUnstableAndUnseen)
{
    ProfileDb train;
    ProfileDb ref;
    addBranch(train, 0xa0, 100, 0.9); // stable
    addBranch(ref, 0xa0, 100, 0.92);
    addBranch(train, 0xb0, 100, 0.8); // flips
    addBranch(ref, 0xb0, 100, 0.2);
    addBranch(train, 0xc0, 100, 0.7); // not in ref

    ProfileDb filtered = stableSubset(train, ref, 0.05);
    EXPECT_EQ(filtered.size(), 1u);
    EXPECT_NE(filtered.find(0xa0), nullptr);
    EXPECT_EQ(filtered.find(0xb0), nullptr);
    EXPECT_EQ(filtered.find(0xc0), nullptr);
    // The surviving entry keeps the *train* counts.
    EXPECT_EQ(filtered.find(0xa0)->taken, 90u);
}

} // namespace
} // namespace bpsim
