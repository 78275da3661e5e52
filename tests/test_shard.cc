/**
 * @file
 * Sharded-sweep tests: the shard-spec parser, the fingerprint
 * partition, bit-identity of shard unions and merged-checkpoint
 * resumes against an unsharded run, merge rejection of bad shard
 * sets, warm-vs-cold artifact-cache identity, and fault injection at
 * the cache points proving cache damage never aborts a sweep.
 *
 * The FaultInjector is process-wide, so the fault tests run in the
 * ShardFaultTest fixture whose TearDown disarms.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "core/runner.hh"
#include "obs/run_journal.hh"
#include "support/fault.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

constexpr Count testProfileBranches = 60'000;
constexpr Count testEvalBranches = 120'000;

ExperimentConfig
testConfig(PredictorKind kind, StaticScheme scheme)
{
    ExperimentConfig config;
    config.kind = kind;
    config.sizeBytes = 2048;
    config.scheme = scheme;
    config.profileBranches = testProfileBranches;
    config.evalBranches = testEvalBranches;
    return config;
}

/** One program x 2 kinds x 3 schemes = 6 fingerprintable cells. */
void
addTestCells(ExperimentRunner &runner)
{
    const std::size_t program = runner.addProgram(
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
    for (const auto kind :
         {PredictorKind::Gshare, PredictorKind::Bimodal}) {
        for (const auto scheme :
             {StaticScheme::None, StaticScheme::Static95,
              StaticScheme::StaticAcc}) {
            runner.addCell(program, testConfig(kind, scheme));
        }
    }
}

constexpr std::size_t testCellCount = 6;

MatrixResult
runMatrix(const RunnerOptions &options)
{
    ExperimentRunner runner(options);
    addTestCells(runner);
    return runner.run();
}

/** Fault-free single-thread unsharded run everything compares to. */
const MatrixResult &
reference()
{
    static const MatrixResult clean = runMatrix(RunnerOptions{});
    return clean;
}

void
expectSameDeterministicFields(const CellResult &a, const CellResult &b,
                              std::size_t index)
{
    EXPECT_EQ(a.result.stats.branches, b.result.stats.branches)
        << "cell " << index;
    EXPECT_EQ(a.result.stats.mispredictions,
              b.result.stats.mispredictions)
        << "cell " << index;
    EXPECT_EQ(a.result.stats.staticPredicted,
              b.result.stats.staticPredicted)
        << "cell " << index;
    EXPECT_EQ(a.result.stats.staticMispredictions,
              b.result.stats.staticMispredictions)
        << "cell " << index;
    EXPECT_EQ(a.result.stats.collisions.destructive,
              b.result.stats.collisions.destructive)
        << "cell " << index;
    EXPECT_EQ(a.result.hintCount, b.result.hintCount)
        << "cell " << index;
    EXPECT_EQ(a.result.simulatedBranches, b.result.simulatedBranches)
        << "cell " << index;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::filesystem::remove_all(path);
    return path;
}

RunnerOptions
shardOptions(unsigned index, unsigned count,
             const std::string &checkpoint = "",
             const std::string &cache_dir = "")
{
    RunnerOptions options;
    options.shardIndex = index;
    options.shardCount = count;
    options.checkpointPath = checkpoint;
    options.cacheDir = cache_dir;
    return options;
}

TEST(ParseShardSpec, AcceptsWellFormedSpecs)
{
    const auto one = parseShardSpec("1/1");
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one.value(), (std::pair<unsigned, unsigned>{1, 1}));

    const auto mid = parseShardSpec("3/8");
    ASSERT_TRUE(mid.ok());
    EXPECT_EQ(mid.value(), (std::pair<unsigned, unsigned>{3, 8}));
}

TEST(ParseShardSpec, RejectsMalformedSpecs)
{
    for (const char *spec :
         {"", "1", "/", "1/", "/2", "0/2", "3/2", "a/2", "2/b",
          "1/0", "-1/2", "1/2/3", "1 /2", "0123456789/2"}) {
        const auto parsed = parseShardSpec(spec);
        ASSERT_FALSE(parsed.ok()) << "spec '" << spec << "' parsed";
        EXPECT_EQ(parsed.error().code(), ErrorCode::ConfigInvalid)
            << "spec '" << spec << "'";
    }
}

TEST(ShardPartition, IsDeterministicAndInRange)
{
    const std::vector<std::string> fingerprints = {
        "v1|compress|2000|gshare:2048|none",
        "v1|compress|2000|gshare:2048|static_95",
        "v1|go|2000|bimodal:1024|none",
        "v1|gcc|2000|2bcgskew:8192|static_acc",
    };
    for (const unsigned count : {1u, 2u, 3u, 4u, 7u}) {
        for (const auto &fp : fingerprints) {
            const unsigned shard = shardOfFingerprint(fp, count);
            EXPECT_LT(shard, count);
            EXPECT_EQ(shard, shardOfFingerprint(fp, count));
        }
    }
    for (const auto &fp : fingerprints)
        EXPECT_EQ(shardOfFingerprint(fp, 1), 0u);
}

TEST(ShardRun, UnionOfShardsCoversMatrixExactlyOnce)
{
    for (const unsigned count : {2u, 4u}) {
        std::vector<char> owned(testCellCount, 0);
        Count skipped_total = 0;
        for (unsigned index = 1; index <= count; ++index) {
            const MatrixResult result =
                runMatrix(shardOptions(index, count));
            EXPECT_EQ(result.shardIndex, index);
            EXPECT_EQ(result.shardCount, count);
            EXPECT_EQ(result.shardCells + result.shardSkippedCells,
                      testCellCount);
            skipped_total += result.shardSkippedCells;
            ASSERT_EQ(result.cells.size(), testCellCount);
            for (std::size_t i = 0; i < testCellCount; ++i) {
                if (result.cells[i].shardSkipped)
                    continue;
                EXPECT_EQ(owned[i], 0)
                    << "cell " << i << " owned by two shards";
                owned[i] = 1;
                expectSameDeterministicFields(
                    result.cells[i], reference().cells[i], i);
            }
        }
        EXPECT_EQ(skipped_total, testCellCount * (count - 1));
        for (std::size_t i = 0; i < testCellCount; ++i)
            EXPECT_EQ(owned[i], 1) << "cell " << i << " unowned";
    }
}

/** Run every shard of a @p count way split, checkpointing each, and
 * return the checkpoint paths. */
std::vector<std::string>
runShards(unsigned count, const std::string &prefix,
          const std::string &cache_dir = "")
{
    std::vector<std::string> paths;
    for (unsigned index = 1; index <= count; ++index) {
        const std::string path = tempPath(
            prefix + std::to_string(index) + "of" +
            std::to_string(count) + ".jsonl");
        const MatrixResult result = runMatrix(
            shardOptions(index, count, path, cache_dir));
        EXPECT_EQ(result.failedCells, 0u);
        paths.push_back(path);
    }
    return paths;
}

TEST(ShardRun, MergedCheckpointResumesBitIdentical)
{
    for (const unsigned count : {2u, 4u}) {
        const std::vector<std::string> shards = runShards(
            count, "merge_identity_");
        const std::string merged = tempPath(
            "merged_" + std::to_string(count) + ".jsonl");
        const Result<MergeSummary> summary =
            mergeShardCheckpoints(shards, merged);
        ASSERT_TRUE(summary.ok()) << summary.error().describe();
        EXPECT_EQ(summary.value().shardCount, count);
        EXPECT_EQ(summary.value().matrixCells, testCellCount);
        EXPECT_EQ(summary.value().records, testCellCount);

        const std::string json =
            renderMergeSummaryJson(summary.value(), merged);
        EXPECT_NE(json.find("bpsim-merge-v1"), std::string::npos);

        // An unsharded resume from the merged file must restore every
        // cell and match the never-sharded reference bit-for-bit in
        // the deterministic fields, at any thread count.
        for (const unsigned threads : {1u, 2u, 4u}) {
            RunnerOptions options;
            options.threads = threads;
            options.checkpointPath = merged;
            options.resume = true;
            const MatrixResult resumed = runMatrix(options);
            EXPECT_EQ(resumed.restoredCells, testCellCount)
                << count << " shards, " << threads << " threads";
            EXPECT_EQ(resumed.actualBranches,
                      reference().actualBranches);
            EXPECT_EQ(resumed.totalBranches,
                      reference().totalBranches);
            for (std::size_t i = 0; i < testCellCount; ++i) {
                expectSameDeterministicFields(
                    resumed.cells[i], reference().cells[i], i);
            }
        }
    }
}

TEST(ShardRun, TrivialSingleShardMergeResumes)
{
    const std::vector<std::string> shards =
        runShards(1, "merge_trivial_");
    const std::string merged = tempPath("merged_trivial.jsonl");
    const Result<MergeSummary> summary =
        mergeShardCheckpoints(shards, merged);
    ASSERT_TRUE(summary.ok()) << summary.error().describe();
    EXPECT_EQ(summary.value().records, testCellCount);

    RunnerOptions options;
    options.checkpointPath = merged;
    options.resume = true;
    const MatrixResult resumed = runMatrix(options);
    EXPECT_EQ(resumed.restoredCells, testCellCount);
}

TEST(ShardRun, MismatchedCheckpointStampIsRejected)
{
    const std::vector<std::string> shards =
        runShards(2, "stamp_mismatch_");
    // Resuming shard 1's checkpoint as shard 2 of 2 (or under a
    // different shard count) must fail up front, not mix partitions.
    RunnerOptions options = shardOptions(2, 2, shards[0]);
    options.resume = true;
    EXPECT_THROW(runMatrix(options), ErrorException);

    RunnerOptions recount = shardOptions(1, 4, shards[0]);
    recount.resume = true;
    EXPECT_THROW(runMatrix(recount), ErrorException);
}

TEST(MergeRejects, BadShardSets)
{
    const std::vector<std::string> shards =
        runShards(2, "merge_reject_");
    const std::string out = tempPath("merge_reject_out.jsonl");

    // No inputs.
    {
        const Result<MergeSummary> merged =
            mergeShardCheckpoints({}, out);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code(), ErrorCode::ConfigInvalid);
    }

    // The same shard twice.
    {
        const Result<MergeSummary> merged = mergeShardCheckpoints(
            {shards[0], shards[0]}, out);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code(), ErrorCode::ConfigInvalid);
    }

    // A missing shard.
    {
        const Result<MergeSummary> merged =
            mergeShardCheckpoints({shards[0]}, out);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code(), ErrorCode::ConfigInvalid);
    }

    // An absent input loads as an empty checkpoint (the resume
    // convention) and is then rejected for lacking a shard header.
    {
        const Result<MergeSummary> merged = mergeShardCheckpoints(
            {shards[0], tempPath("merge_reject_absent.jsonl")}, out);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code(), ErrorCode::ConfigInvalid);
    }
}

TEST(MergeRejects, HeaderlessAndIncompleteAndMislabeled)
{
    const std::vector<std::string> shards =
        runShards(2, "merge_fabricate_");
    const std::string out = tempPath("merge_fabricate_out.jsonl");

    SweepCheckpoint first(shards[0]);
    ASSERT_TRUE(first.load().ok());
    ASSERT_TRUE(first.shard().has_value());
    const ShardStamp stamp = *first.shard();
    const std::vector<CheckpointRecord> records = first.snapshot();

    // Headerless input: records without a shard stamp.
    {
        const std::string path =
            tempPath("merge_fabricate_headerless.jsonl");
        SweepCheckpoint plain(path);
        for (const CheckpointRecord &record : records)
            ASSERT_TRUE(plain.record(record).ok());
        const Result<MergeSummary> merged =
            mergeShardCheckpoints({path, shards[1]}, out);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code(), ErrorCode::ConfigInvalid);
    }

    // Incomplete shard: the stamp promises records the file lacks.
    if (stamp.shardCells > 0) {
        const std::string path =
            tempPath("merge_fabricate_incomplete.jsonl");
        SweepCheckpoint partial(path);
        partial.setShard(stamp);
        ASSERT_TRUE(partial.flush().ok());
        if (records.size() > 1) {
            ASSERT_TRUE(partial.record(records.front()).ok());
        }
        const Result<MergeSummary> merged =
            mergeShardCheckpoints({path, shards[1]}, out);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code(), ErrorCode::ConfigInvalid);
    }

    // Mislabeled shard: shard 1's records filed under shard 2.
    {
        const std::string path =
            tempPath("merge_fabricate_mislabeled.jsonl");
        SweepCheckpoint relabeled(path);
        ShardStamp wrong = stamp;
        wrong.shardIndex = 2;
        relabeled.setShard(wrong);
        ASSERT_TRUE(relabeled.flush().ok());
        for (const CheckpointRecord &record : records)
            ASSERT_TRUE(relabeled.record(record).ok());
        const Result<MergeSummary> merged =
            mergeShardCheckpoints({shards[0], path}, out);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code(), ErrorCode::ConfigInvalid);
    }
}

TEST(ArtifactCacheRun, WarmRunIsBitIdenticalToCold)
{
    const std::string cache_dir = tempPath("warm_cold_cache");

    RunnerOptions options;
    options.cacheDir = cache_dir;
    const MatrixResult cold = runMatrix(options);
    EXPECT_EQ(cold.cacheReplayHits, 0u);
    EXPECT_EQ(cold.cacheReplayMisses, 1u);
    EXPECT_EQ(cold.cacheCorrupt, 0u);
    EXPECT_GT(cold.cacheProfileMisses, 0u);

    obs::RunJournal journal("warm");
    RunnerOptions warm_options = options;
    warm_options.journal = &journal;
    const MatrixResult warm = runMatrix(warm_options);
    EXPECT_EQ(warm.cacheReplayHits, 1u);
    EXPECT_EQ(warm.cacheReplayMisses, 0u);
    EXPECT_EQ(warm.cacheProfileMisses, 0u);
    EXPECT_GT(warm.cacheProfileHits, 0u);
    EXPECT_GT(warm.mappedBytes, 0u);
    EXPECT_EQ(warm.cacheCorrupt, 0u);

    // Profile phases served from disk still fall inside the profile
    // bracket, like the phases a cold run simulates.
    int open_profile = 0;
    Count disk_phases = 0;
    for (const obs::Event &event : journal.events()) {
        if (event.label == "profile" &&
            event.kind == obs::EventKind::PhaseBegin)
            ++open_profile;
        if (event.label == "profile" &&
            event.kind == obs::EventKind::PhaseEnd)
            --open_profile;
        if (event.kind == obs::EventKind::ProfilePhase) {
            EXPECT_EQ(open_profile, 1)
                << "profile_phase " << event.u64("phase")
                << " outside the profile bracket";
            ++disk_phases;
        }
    }
    EXPECT_EQ(disk_phases, warm.cacheProfileHits);

    // The warm run's results — including the branch accounting that
    // credits phases it never simulated locally — must match both the
    // cold run and the cache-less reference bit-for-bit.
    EXPECT_EQ(warm.actualBranches, reference().actualBranches);
    EXPECT_EQ(warm.totalBranches, reference().totalBranches);
    EXPECT_EQ(cold.actualBranches, reference().actualBranches);
    for (std::size_t i = 0; i < testCellCount; ++i) {
        expectSameDeterministicFields(cold.cells[i],
                                      reference().cells[i], i);
        expectSameDeterministicFields(warm.cells[i],
                                      reference().cells[i], i);
    }
}

class ShardFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(ShardFaultTest, CacheWriteFaultNeverAbortsTheSweep)
{
    const std::string cache_dir = tempPath("fault_write_cache");
    ASSERT_TRUE(FaultInjector::instance()
                    .armFromSpec("cache_write:1")
                    .ok());

    RunnerOptions options;
    options.cacheDir = cache_dir;
    const MatrixResult result = runMatrix(options);
    EXPECT_EQ(result.failedCells, 0u);
    for (std::size_t i = 0; i < testCellCount; ++i) {
        expectSameDeterministicFields(result.cells[i],
                                      reference().cells[i], i);
    }
}

TEST_F(ShardFaultTest, CacheMapFaultFallsBackToRegeneration)
{
    const std::string cache_dir = tempPath("fault_map_cache");

    // Populate the cache fault-free, then poison the first load of
    // the warm run: it must count the artifact as corrupt, regenerate
    // and still finish with bit-identical results.
    RunnerOptions options;
    options.cacheDir = cache_dir;
    const MatrixResult cold = runMatrix(options);
    EXPECT_EQ(cold.failedCells, 0u);

    ASSERT_TRUE(
        FaultInjector::instance().armFromSpec("cache_map:1").ok());
    const MatrixResult warm = runMatrix(options);
    EXPECT_EQ(warm.failedCells, 0u);
    EXPECT_GE(warm.cacheCorrupt, 1u);
    EXPECT_EQ(warm.actualBranches, reference().actualBranches);
    for (std::size_t i = 0; i < testCellCount; ++i) {
        expectSameDeterministicFields(warm.cells[i],
                                      reference().cells[i], i);
    }
}

} // namespace
} // namespace bpsim
