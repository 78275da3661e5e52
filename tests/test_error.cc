/**
 * @file
 * Tests for the structured error subsystem and its consumers: Error /
 * Result semantics, atomic file writes, config validation, non-fatal
 * JSON parsing, and the sweep-checkpoint store with its deterministic
 * config fingerprints.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "support/atomic_file.hh"
#include "support/error.hh"
#include "support/json.hh"
#include "workload/specint.hh"
#include "workload/synthetic_program.hh"

namespace bpsim
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ErrorTest, WireNamesCoverTheTaxonomy)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::ConfigInvalid),
                 "config_invalid");
    EXPECT_STREQ(errorCodeName(ErrorCode::IoFailure), "io_failure");
    EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhausted),
                 "resource_exhausted");
    EXPECT_STREQ(errorCodeName(ErrorCode::CellFailed), "cell_failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
}

TEST(ErrorTest, DescribeRendersCodeMessageAndContextChain)
{
    Error error(ErrorCode::IoFailure, "cannot open 'x.json'");
    EXPECT_EQ(error.describe(), "[io_failure] cannot open 'x.json'");

    error.withContext("while loading checkpoint")
        .withContext("while resuming sweep");
    EXPECT_EQ(error.describe(),
              "[io_failure] cannot open 'x.json' (context: while "
              "loading checkpoint; while resuming sweep)");
}

TEST(ErrorTest, OnlyResourceExhaustedIsTransient)
{
    EXPECT_TRUE(
        Error(ErrorCode::ResourceExhausted, "oom").transient());
    EXPECT_FALSE(Error(ErrorCode::ConfigInvalid, "bad").transient());
    EXPECT_FALSE(Error(ErrorCode::IoFailure, "io").transient());
    EXPECT_FALSE(Error(ErrorCode::CellFailed, "cell").transient());
    EXPECT_FALSE(Error(ErrorCode::Internal, "bug").transient());
}

TEST(ErrorTest, RaiseThrowsErrorExceptionCarryingTheError)
{
    try {
        raise(Error(ErrorCode::CellFailed, "boom")
                  .withContext("in cell go/gshare"));
        FAIL() << "raise() returned";
    } catch (const ErrorException &caught) {
        EXPECT_EQ(caught.error().code(), ErrorCode::CellFailed);
        EXPECT_EQ(caught.error().message(), "boom");
        EXPECT_STREQ(caught.what(),
                     "[cell_failed] boom (context: in cell "
                     "go/gshare)");
    }
}

TEST(ResultTest, HoldsValueOrError)
{
    const Result<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);

    const Result<int> bad(Error(ErrorCode::Internal, "nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message(), "nope");

    const Result<void> fine = okResult();
    EXPECT_TRUE(fine.ok());
    const Result<void> failed{Error(ErrorCode::IoFailure, "disk")};
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code(), ErrorCode::IoFailure);
}

TEST(ResultDeathTest, WrongSideAccessPanics)
{
    const Result<int> bad(Error(ErrorCode::Internal, "nope"));
    EXPECT_DEATH(static_cast<void>(bad.value()), "Result");
    const Result<int> good(7);
    EXPECT_DEATH(static_cast<void>(good.error()), "Result");
}

TEST(AtomicFileTest, WriteFileAtomicCreatesAndReplaces)
{
    const std::string path = tempPath("atomic_write_test.txt");
    std::remove(path.c_str());

    ASSERT_TRUE(writeFileAtomic(path, "first\n").ok());
    EXPECT_EQ(readAll(path), "first\n");

    ASSERT_TRUE(writeFileAtomic(path, "second\n").ok());
    EXPECT_EQ(readAll(path), "second\n");
    std::remove(path.c_str());
}

TEST(AtomicFileTest, UncommittedWriterLeavesTargetUntouched)
{
    const std::string path = tempPath("atomic_uncommitted_test.txt");
    std::remove(path.c_str());
    ASSERT_TRUE(writeFileAtomic(path, "original\n").ok());

    {
        AtomicFile writer(path);
        ASSERT_TRUE(writer.ok());
        std::fputs("half-written garbage", writer.stream());
        // No commit(): the destructor must discard the temp file.
    }
    EXPECT_EQ(readAll(path), "original\n");
    std::remove(path.c_str());
}

TEST(AtomicFileTest, CommitSurvivesInterruptedSignals)
{
    // The durability path (fsync file + parent dir, EINTR-retried
    // rename) must hold up under a steady stream of signals like the
    // service's SIGTERM drain delivers. SIGUSR1 with a no-op handler
    // interrupts syscalls without killing the process; every commit
    // must still land complete.
    struct sigaction action{};
    struct sigaction previous{};
    action.sa_handler = [](int) {};
    sigemptyset(&action.sa_mask);
    ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

    const std::string path = tempPath("atomic_signal_test.txt");
    std::remove(path.c_str());

    std::atomic<bool> done{false};
    std::thread pepperer([&done] {
        while (!done.load()) {
            ::kill(::getpid(), SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        }
    });
    for (int round = 0; round < 200; ++round) {
        const std::string body =
            "round " + std::to_string(round) + "\n";
        ASSERT_TRUE(writeFileAtomic(path, body).ok());
        ASSERT_EQ(readAll(path), body);
    }
    done.store(true);
    pepperer.join();
    sigaction(SIGUSR1, &previous, nullptr);
    std::remove(path.c_str());
}

TEST(AtomicFileTest, UnwritableDirectoryIsAStructuredError)
{
    AtomicFile writer("/nonexistent-bpsim-dir/out.json");
    EXPECT_FALSE(writer.ok());

    const Result<void> written =
        writeFileAtomic("/nonexistent-bpsim-dir/out.json", "x");
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code(), ErrorCode::IoFailure);
}

TEST(ValidationTest, ExperimentConfigRejectsBadTableSizes)
{
    ExperimentConfig config;
    config.evalBranches = 1000;

    for (const std::size_t bad : {std::size_t{0}, std::size_t{8},
                                  std::size_t{1000},
                                  std::size_t{4097}}) {
        config.sizeBytes = bad;
        const Result<void> valid = config.validate();
        ASSERT_FALSE(valid.ok()) << "sizeBytes=" << bad;
        EXPECT_EQ(valid.error().code(), ErrorCode::ConfigInvalid);
        EXPECT_NE(valid.error().message().find("power of two"),
                  std::string::npos);
    }
    config.sizeBytes = 2048;
    EXPECT_TRUE(config.validate().ok());
}

TEST(ValidationTest, ExperimentConfigRejectsZeroLengthStreams)
{
    ExperimentConfig config;
    config.sizeBytes = 2048;
    config.evalBranches = 0;
    const Result<void> no_eval = config.validate();
    ASSERT_FALSE(no_eval.ok());
    EXPECT_NE(no_eval.error().message().find("evalBranches"),
              std::string::npos);

    config.evalBranches = 1000;
    config.scheme = StaticScheme::Static95;
    config.profileBranches = 0;
    const Result<void> no_profile = config.validate();
    ASSERT_FALSE(no_profile.ok());
    EXPECT_NE(no_profile.error().message().find("profileBranches"),
              std::string::npos);

    // Without a static scheme there is no profiling phase to size.
    config.scheme = StaticScheme::None;
    EXPECT_TRUE(config.validate().ok());
}

TEST(ValidationTest, ExperimentConfigRejectsOutOfRangeTunables)
{
    ExperimentConfig config;
    config.sizeBytes = 2048;
    config.evalBranches = 1000;

    config.selection.cutoffBias = 1.5;
    EXPECT_FALSE(config.validate().ok());
    config.selection.cutoffBias = 0.95;

    config.filterUnstable = true;
    config.stabilityThreshold = -0.25;
    EXPECT_FALSE(config.validate().ok());
    config.stabilityThreshold = 0.05;
    EXPECT_TRUE(config.validate().ok());
}

TEST(ValidationTest, HistoryLengthsOnlyWhereThePredictorTakesThem)
{
    ExperimentConfig config;
    config.kind = PredictorKind::TwoBcGskew;
    config.historyLengths = {3, 8, 6};
    EXPECT_TRUE(config.validate().ok());

    const auto expectInvalid = [](const ExperimentConfig &bad,
                                  const std::string &why) {
        const Result<void> valid = bad.validate();
        ASSERT_FALSE(valid.ok()) << why;
        EXPECT_EQ(valid.error().code(), ErrorCode::ConfigInvalid);
        EXPECT_NE(valid.error().message().find(why), std::string::npos)
            << valid.error().message();
    };
    ExperimentConfig bad = config;
    bad.kind = PredictorKind::Gshare;
    expectInvalid(bad, "takes no history lengths");
    bad = config;
    bad.predictor = "tage";
    expectInvalid(bad, "takes no history lengths");
    bad = config;
    bad.historyLengths = {3, 8};
    expectInvalid(bad, "takes 3 history lengths, got 2");
    bad = config;
    bad.historyLengths = {3, 65, 6};
    expectInvalid(bad, "[1, 64], got 65");
    bad = config;
    bad.historyLengths = {0, 8, 6};
    expectInvalid(bad, "[1, 64], got 0");
}

TEST(ValidationTest, InvalidConfigFailsFastBeforeSimulating)
{
    ExperimentConfig config;
    config.sizeBytes = 1000; // not a power of two
    config.evalBranches = 1000;
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref);
    EXPECT_THROW(runExperimentStreams(program, program, config),
                 ErrorException);
}

TEST(ValidationTest, ProgramConfigRejectsBadFractions)
{
    ProgramConfig config;
    config.fracHighBias = 1.25;
    const Result<void> valid = config.validate();
    ASSERT_FALSE(valid.ok());
    EXPECT_EQ(valid.error().code(), ErrorCode::ConfigInvalid);
    EXPECT_NE(valid.error().message().find("fracHighBias"),
              std::string::npos);

    config.fracHighBias = 0.45;
    EXPECT_TRUE(config.validate().ok());

    config.staticBranches = 2;
    EXPECT_FALSE(config.validate().ok());
}

TEST(JsonTest, TryParseReturnsStructuredErrorOnGarbage)
{
    const Result<JsonValue> bad =
        JsonValue::tryParse("{\"a\": 1,,}", "test.json");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), ErrorCode::IoFailure);
    EXPECT_NE(bad.error().message().find("test.json"),
              std::string::npos);

    const Result<JsonValue> good =
        JsonValue::tryParse("{\"a\": 1}", "test.json");
    ASSERT_TRUE(good.ok());
    EXPECT_DOUBLE_EQ(good.value().at("a").asNumber(), 1.0);
}

/** A fingerprint-friendly mini program (cheap to build). */
SyntheticProgram
fingerprintProgram(std::uint64_t seed = 0x5eed)
{
    ProgramConfig config;
    config.name = "fp";
    config.staticBranches = 40;
    config.seed = seed;
    return buildProgram(config, InputSet::Ref);
}

ExperimentConfig
fingerprintConfig()
{
    ExperimentConfig config;
    config.kind = PredictorKind::Gshare;
    config.sizeBytes = 2048;
    config.scheme = StaticScheme::Static95;
    config.profileBranches = 10'000;
    config.evalBranches = 20'000;
    return config;
}

TEST(CheckpointTest, FingerprintIsDeterministicAndDiscriminating)
{
    const SyntheticProgram program = fingerprintProgram();
    const ExperimentConfig config = fingerprintConfig();

    const std::string base = cellFingerprint(program, config);
    ASSERT_FALSE(base.empty());
    EXPECT_EQ(base.rfind("v1|", 0), 0u);
    EXPECT_EQ(cellFingerprint(program, config), base);

    // Every result-affecting knob must move the fingerprint.
    ExperimentConfig changed = config;
    changed.sizeBytes = 4096;
    EXPECT_NE(cellFingerprint(program, changed), base);

    changed = config;
    changed.scheme = StaticScheme::StaticAcc;
    EXPECT_NE(cellFingerprint(program, changed), base);

    changed = config;
    changed.evalBranches += 1;
    EXPECT_NE(cellFingerprint(program, changed), base);

    changed = config;
    changed.selection.cutoffBias = 0.9;
    EXPECT_NE(cellFingerprint(program, changed), base);

    const SyntheticProgram other = fingerprintProgram(0xbeef);
    EXPECT_NE(cellFingerprint(other, config), base);
}

TEST(CheckpointTest, PlainFingerprintIsPinned)
{
    // A checkpoint resumes only while its cells' fingerprints are
    // unchanged, so the format of a plain cell's is pinned byte for
    // byte.
    EXPECT_EQ(cellFingerprint(fingerprintProgram(), fingerprintConfig()),
              "v1|fp|24301|gshare:2048|static_95|noshift|10000|20000|0|1|"
              "1|0:0.050000000000000003|0.94999999999999996,2,16,"
              "0.94999999999999996,0.10000000000000001");
}

TEST(CheckpointTest, HistoryLengthsJoinTheFingerprint)
{
    const SyntheticProgram program = fingerprintProgram();
    ExperimentConfig config = fingerprintConfig();
    config.kind = PredictorKind::TwoBcGskew;
    config.sizeBytes = 8192;
    const std::string defaults = cellFingerprint(program, config);
    EXPECT_NE(defaults.find("|2bcgskew:8192|"), std::string::npos);

    config.historyLengths = {3, 8, 6};
    const std::string lengths = cellFingerprint(program, config);
    EXPECT_NE(lengths, defaults);
    EXPECT_NE(lengths.find("|2bcgskew:8192:h3,8,6|"), std::string::npos);
    EXPECT_EQ(predictorIdentityOf(config), "2bcgskew:8192:h3,8,6");

    config.historyLengths = {3, 8, 7};
    EXPECT_NE(cellFingerprint(program, config), lengths);
}

CheckpointRecord
sampleRecord(const std::string &fingerprint, Count branches)
{
    CheckpointRecord record;
    record.fingerprint = fingerprint;
    record.label = "cell/" + fingerprint;
    record.result.stats.branches = branches;
    record.result.stats.instructions = branches * 7;
    record.result.stats.mispredictions = branches / 10;
    record.result.stats.collisions.lookups = branches;
    record.result.stats.collisions.collisions = branches / 4;
    record.result.stats.collisions.constructive = branches / 16;
    record.result.stats.collisions.destructive = branches / 8;
    record.result.hintCount = 12;
    record.result.simulatedBranches = branches * 2;
    record.usedKernel = true;
    record.phaseBranches = branches / 2;
    return record;
}

TEST(CheckpointTest, RecordAndLoadRoundTrip)
{
    const std::string path = tempPath("checkpoint_roundtrip.jsonl");
    std::remove(path.c_str());

    {
        SweepCheckpoint checkpoint(path);
        ASSERT_TRUE(checkpoint.load().ok()); // missing file == empty
        EXPECT_EQ(checkpoint.size(), 0u);
        ASSERT_TRUE(
            checkpoint.record(sampleRecord("v1|a", 1000)).ok());
        ASSERT_TRUE(
            checkpoint.record(sampleRecord("v1|b", 2000)).ok());
        // Re-recording a fingerprint replaces, never duplicates.
        ASSERT_TRUE(
            checkpoint.record(sampleRecord("v1|a", 3000)).ok());
        EXPECT_EQ(checkpoint.size(), 2u);
    }

    SweepCheckpoint reloaded(path);
    ASSERT_TRUE(reloaded.load().ok());
    EXPECT_EQ(reloaded.size(), 2u);

    const CheckpointRecord *a = reloaded.find("v1|a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->result.stats.branches, 3000u);
    const CheckpointRecord expected = sampleRecord("v1|b", 2000);
    const CheckpointRecord *b = reloaded.find("v1|b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->label, expected.label);
    EXPECT_EQ(b->result.stats.branches,
              expected.result.stats.branches);
    EXPECT_EQ(b->result.stats.instructions,
              expected.result.stats.instructions);
    EXPECT_EQ(b->result.stats.mispredictions,
              expected.result.stats.mispredictions);
    EXPECT_EQ(b->result.stats.collisions.lookups,
              expected.result.stats.collisions.lookups);
    EXPECT_EQ(b->result.stats.collisions.collisions,
              expected.result.stats.collisions.collisions);
    EXPECT_EQ(b->result.stats.collisions.constructive,
              expected.result.stats.collisions.constructive);
    EXPECT_EQ(b->result.stats.collisions.destructive,
              expected.result.stats.collisions.destructive);
    EXPECT_EQ(b->result.hintCount, expected.result.hintCount);
    EXPECT_EQ(b->result.simulatedBranches,
              expected.result.simulatedBranches);
    EXPECT_EQ(b->usedKernel, expected.usedKernel);
    EXPECT_EQ(b->phaseBranches, expected.phaseBranches);

    EXPECT_EQ(reloaded.find("v1|missing"), nullptr);
    EXPECT_EQ(reloaded.find(""), nullptr);
    std::remove(path.c_str());
}

/** Render a parsed record value back to JSON text (numbers are the
 * record's integer counts). */
std::string
renderJson(const JsonValue &value)
{
    if (value.isString())
        return jsonQuote(value.asString());
    if (value.isBool())
        return value.asBool() ? "true" : "false";
    if (value.isNumber())
        return std::to_string(static_cast<Count>(value.asNumber()));
    std::string out = "[";
    for (std::size_t i = 0; i < value.items().size(); ++i)
        out += (i > 0 ? ", " : "") + renderJson(value.items()[i]);
    return out + "]";
}

TEST(CheckpointTest, CorruptLinesAreSkippedNotFatal)
{
    const std::string path = tempPath("checkpoint_corrupt.jsonl");
    CheckpointRecord scenario = sampleRecord("v1|scenario", 800);
    scenario.result.contextStats = {{400, 2800, 40, 10, 100},
                                    {400, 2800, 40, 10, 100}};
    scenario.result.aliasMatrix = {{1, 0, 1}, {2, 1, 1}, {3, 2, 1},
                                   {4, 3, 1}};
    const JsonValue rendered =
        JsonValue::parse(SweepCheckpoint::renderLine(scenario));
    // The scenario record under @p fingerprint with @p key's value
    // replaced by @p text, or dropped when @p text is null.
    const auto damage = [&](const std::string &fingerprint,
                            const std::string &key, const char *text) {
        std::string line;
        for (const auto &[name, value] : rendered.members()) {
            std::string field = name == "fingerprint"
                                    ? jsonQuote(fingerprint)
                                    : renderJson(value);
            if (name == key) {
                if (text == nullptr)
                    continue;
                field = text;
            }
            line += line.empty() ? "{" : ", ";
            line += jsonQuote(name) + ": " + field;
        }
        return line + "}\n";
    };
    {
        SweepCheckpoint checkpoint(path);
        ASSERT_TRUE(
            checkpoint.record(sampleRecord("v1|keep", 500)).ok());
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "this is not json\n";
        out << "{\"schema\": \"other-schema\", \"x\": 1}\n";
        out << damage("v1|intact", "", nullptr);
        // Each rendered key dropped, then given a wrong-typed value.
        for (const auto &[key, value] : rendered.members()) {
            out << damage("v1|" + key + "-dropped", key, nullptr);
            out << damage("v1|" + key + "-retyped", key,
                          value.isString() ? "7" : "\"7\"");
        }
        // A malformed scenario row rejects the whole record.
        out << damage("v1|short-row", "contexts", "[[1, 2, 3, 4]]");
        out << damage("v1|text-row", "alias_matrix", "[[1, \"2\", 3]]");
        out << damage("v1|negative-row", "alias_matrix", "[[1, -2, 3]]");
    }

    SweepCheckpoint reloaded(path);
    ASSERT_TRUE(reloaded.load().ok());
    // Only keys that older checkpoints lack may be absent: "simd"
    // predates the batch kernels, and a plain cell has no scenario
    // tables.
    EXPECT_EQ(reloaded.size(), 5u);
    EXPECT_NE(reloaded.find("v1|keep"), nullptr);
    for (const char *optional :
         {"v1|simd-dropped", "v1|contexts-dropped",
          "v1|alias_matrix-dropped"}) {
        EXPECT_NE(reloaded.find(optional), nullptr) << optional;
    }
    const CheckpointRecord *intact = reloaded.find("v1|intact");
    ASSERT_NE(intact, nullptr);
    EXPECT_EQ(intact->result.contextStats.size(), 2u);
    EXPECT_EQ(intact->result.aliasMatrix.size(), 4u);
    EXPECT_EQ(intact->result.aliasMatrix[3].collisions, 4u);
    std::remove(path.c_str());
}

TEST(CheckpointTest, EmptyFingerprintIsRejected)
{
    const std::string path = tempPath("checkpoint_reject.jsonl");
    std::remove(path.c_str());
    SweepCheckpoint checkpoint(path);
    const Result<void> recorded =
        checkpoint.record(sampleRecord("", 100));
    ASSERT_FALSE(recorded.ok());
    EXPECT_EQ(recorded.error().code(), ErrorCode::Internal);
    EXPECT_EQ(checkpoint.size(), 0u);
}

} // namespace
} // namespace bpsim
