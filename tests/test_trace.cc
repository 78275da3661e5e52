/**
 * @file
 * Unit tests for the trace module: in-memory traces, the binary trace
 * file format (round-trips, delta encoding edge cases, error
 * handling), text traces, and the bounded-stream adapter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>

#include "support/random.hh"
#include "trace/memory_trace.hh"
#include "trace/trace_io.hh"

namespace bpsim
{
namespace
{

/** Unique-ish temp path per test. */
std::string
tempPath(const std::string &tag)
{
    return testing::TempDir() + "bpsim_" + tag + "_" +
           std::to_string(::getpid()) + ".trace";
}

MemoryTrace
randomTrace(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    MemoryTrace trace;
    Addr pc = 0x120000000ULL;
    for (std::size_t i = 0; i < n; ++i) {
        // Mix forward and backward jumps to exercise zigzag deltas.
        if (rng.chance(0.3))
            pc -= 4 * rng.nextBelow(1000);
        else
            pc += 4 * rng.nextBelow(1000);
        trace.append({pc, rng.chance(0.5),
                      1 + static_cast<std::uint32_t>(
                              rng.nextBelow(30))});
    }
    return trace;
}

TEST(MemoryTraceTest, AppendAndReplay)
{
    MemoryTrace trace;
    trace.append({0x100, true, 3});
    trace.append({0x104, false, 1});
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.instructionCount(), 4u);

    BranchRecord record;
    ASSERT_TRUE(trace.next(record));
    EXPECT_EQ(record.pc, 0x100u);
    EXPECT_TRUE(record.taken);
    ASSERT_TRUE(trace.next(record));
    EXPECT_EQ(record.pc, 0x104u);
    EXPECT_FALSE(trace.next(record));

    trace.reset();
    ASSERT_TRUE(trace.next(record));
    EXPECT_EQ(record.pc, 0x100u);
}

TEST(MemoryTraceTest, CaptureWithLimit)
{
    MemoryTrace source = randomTrace(100, 3);
    MemoryTrace copy = MemoryTrace::capture(source, 40);
    EXPECT_EQ(copy.size(), 40u);
    EXPECT_EQ(copy.data()[0], source.data()[0]);
    EXPECT_EQ(copy.data()[39], source.data()[39]);
}

TEST(BinaryTraceTest, RoundTrip)
{
    MemoryTrace original = randomTrace(5000, 17);
    const std::string path = tempPath("roundtrip");
    {
        TraceWriter writer(path);
        original.reset();
        EXPECT_EQ(writer.writeAll(original), 5000u);
    }
    TraceReader reader(path);
    MemoryTrace loaded = MemoryTrace::capture(reader);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.data(), original.data());
    std::remove(path.c_str());
}

TEST(BinaryTraceTest, ReaderReset)
{
    MemoryTrace original = randomTrace(100, 5);
    const std::string path = tempPath("reset");
    {
        TraceWriter writer(path);
        original.reset();
        writer.writeAll(original);
    }
    TraceReader reader(path);
    BranchRecord first;
    ASSERT_TRUE(reader.next(first));
    // Drain some, then rewind: must replay from the first record.
    BranchRecord record;
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(reader.next(record));
    reader.reset();
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record, first);
    std::remove(path.c_str());
}

TEST(BinaryTraceTest, CompressionIsCompact)
{
    // Sequential nearby branches should cost ~2-3 bytes per record.
    MemoryTrace trace;
    for (int i = 0; i < 1000; ++i)
        trace.append({0x1000u + 4u * (i % 50), i % 3 == 0, 8});
    const std::string path = tempPath("compact");
    {
        TraceWriter writer(path);
        trace.reset();
        writer.writeAll(trace);
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long bytes = std::ftell(f);
    std::fclose(f);
    EXPECT_LT(bytes, 3500);
    std::remove(path.c_str());
}

TEST(BinaryTraceTest, MissingFileIsFatal)
{
    EXPECT_EXIT(TraceReader("/nonexistent/path/x.trace"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(BinaryTraceTest, BadMagicIsFatal)
{
    const std::string path = tempPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("NOTATRACE", f);
    std::fclose(f);
    EXPECT_EXIT(TraceReader reader(path),
                ::testing::ExitedWithCode(1), "not a bpsim trace");
    std::remove(path.c_str());
}

/**
 * Adversarial records for the format fuzzer: PCs jump across the
 * whole address space (including 0 and ~0, the zigzag extremes) and
 * instruction gaps span the full uint32 range, so every varint width
 * the encoder can emit shows up.
 */
MemoryTrace
fuzzTrace(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        BranchRecord record;
        switch (rng.nextBelow(4)) {
          case 0: // nearby code: small deltas
            record.pc = 0x400000 + 4 * rng.nextBelow(4096);
            break;
          case 1: // arbitrary 64-bit addresses
            record.pc = rng.next();
            break;
          case 2: // the zigzag extremes
            record.pc = rng.chance(0.5) ? 0 : ~Addr{0};
            break;
          default: // high half, forcing large signed deltas
            record.pc = (Addr{1} << 63) + rng.nextBelow(1 << 20);
            break;
        }
        record.taken = rng.chance(0.5);
        record.instGap = 1 + static_cast<std::uint32_t>(rng.nextBelow(
                                 0xffffffffu));
        trace.append(record);
    }
    return trace;
}

TEST(BinaryTraceFuzzTest, RandomStreamsRoundTripExactly)
{
    // Property: write(read(s)) == s for any record sequence,
    // including single-record and large-ish streams.
    const std::size_t sizes[] = {1, 2, 7, 100, 4096};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::size_t n = sizes[seed % 5];
        MemoryTrace original = fuzzTrace(n, seed);
        const std::string path =
            tempPath("fuzz" + std::to_string(seed));
        {
            TraceWriter writer(path);
            original.reset();
            ASSERT_EQ(writer.writeAll(original), n) << "seed " << seed;
        }
        TraceReader reader(path);
        MemoryTrace loaded = MemoryTrace::capture(reader);
        ASSERT_EQ(loaded.size(), original.size()) << "seed " << seed;
        // Record-exact: pc, direction and gap all survive the
        // delta/zigzag encoding.
        EXPECT_EQ(loaded.data(), original.data()) << "seed " << seed;

        // reset() replays the identical sequence a second time.
        reader.reset();
        MemoryTrace replayed = MemoryTrace::capture(reader);
        EXPECT_EQ(replayed.data(), original.data()) << "seed " << seed;
        std::remove(path.c_str());
    }
}

TEST(BinaryTraceFuzzTest, ExtremePcDeltasRoundTrip)
{
    // PCs on opposite sides of the signed midpoint: a signed
    // subtraction of these overflows. The delta is taken in unsigned
    // arithmetic, which wraps, and the reader wraps it back.
    constexpr Addr top = ~Addr{0};
    constexpr Addr signed_max = top >> 1;
    constexpr Addr signed_min = signed_max + 1;
    const Addr pcs[] = {signed_max, signed_min, signed_max, top,
                        signed_max, 0,          signed_min, 0,
                        top,        signed_min};
    MemoryTrace original;
    for (const Addr pc : pcs) {
        BranchRecord record;
        record.pc = pc;
        record.taken = (pc & 1) != 0;
        record.instGap = 1;
        original.append(record);
    }
    const std::string path = tempPath("extreme");
    {
        TraceWriter writer(path);
        original.reset();
        ASSERT_EQ(writer.writeAll(original), std::size(pcs));
    }
    TraceReader reader(path);
    MemoryTrace loaded = MemoryTrace::capture(reader);
    EXPECT_EQ(loaded.data(), original.data());
    std::remove(path.c_str());

    // Deltas that fit keep their bytes: +0x1000 then -4.
    {
        TraceWriter writer(path);
        BranchRecord record;
        record.pc = 0x1000;
        record.taken = true;
        record.instGap = 1;
        writer.write(record);
        record.pc = 0xffc;
        record.taken = false;
        record.instGap = 2;
        writer.write(record);
    }
    std::FILE *file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    unsigned char bytes[16];
    const std::size_t size = std::fread(bytes, 1, sizeof(bytes), file);
    std::fclose(file);
    const unsigned char expected[] = {'B',  'P',  'T',  '1', 0x80,
                                      0x40, 0x03, 0x07, 0x04};
    ASSERT_EQ(size, sizeof(expected));
    for (std::size_t i = 0; i < size; ++i)
        EXPECT_EQ(bytes[i], expected[i]) << "byte " << i;
    std::remove(path.c_str());
}

TEST(BinaryTraceFuzzTest, ZeroRecordTraceRoundTrips)
{
    const std::string path = tempPath("empty");
    {
        TraceWriter writer(path);
        EXPECT_EQ(writer.count(), 0u);
    }
    TraceReader reader(path);
    BranchRecord record;
    EXPECT_FALSE(reader.next(record));
    // An exhausted empty stream stays exhausted, and reset() does not
    // conjure records either.
    EXPECT_FALSE(reader.next(record));
    reader.reset();
    EXPECT_FALSE(reader.next(record));
    std::remove(path.c_str());
}

TEST(BinaryTraceFuzzTest, TruncatedFileDiesCleanly)
{
    // Write a valid multi-record trace, then chop the file at several
    // byte lengths inside the record stream. Every truncation point
    // must be reported as corruption — never silently decoded as
    // garbage records.
    MemoryTrace original = fuzzTrace(50, 0xfeed);
    const std::string path = tempPath("trunc");
    {
        TraceWriter writer(path);
        original.reset();
        writer.writeAll(original);
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long full = std::ftell(f);
    std::fclose(f);

    for (const long cut : {full - 1, full - 3, full / 2}) {
        ASSERT_GT(cut, 0);
        const std::string cut_path =
            tempPath("trunc_cut" + std::to_string(cut));
        std::FILE *in = std::fopen(path.c_str(), "rb");
        std::FILE *out = std::fopen(cut_path.c_str(), "wb");
        ASSERT_NE(in, nullptr);
        ASSERT_NE(out, nullptr);
        for (long i = 0; i < cut; ++i)
            std::fputc(std::fgetc(in), out);
        std::fclose(in);
        std::fclose(out);

        EXPECT_EXIT(
            {
                TraceReader reader(cut_path);
                BranchRecord record;
                while (reader.next(record)) {
                }
            },
            ::testing::ExitedWithCode(1),
            "truncated varint|ends mid-record")
            << "cut at " << cut << " of " << full;
        std::remove(cut_path.c_str());
    }
    std::remove(path.c_str());
}

TEST(TextTraceTest, RoundTrip)
{
    MemoryTrace original = randomTrace(200, 23);
    const std::string path = tempPath("text");
    original.reset();
    writeTextTrace(original, path);
    MemoryTrace loaded = readTextTrace(path);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.data(), original.data());
    std::remove(path.c_str());
}

TEST(BoundedStreamTest, LimitsAndResets)
{
    MemoryTrace trace = randomTrace(100, 29);
    BoundedStream bounded(trace, 10);
    BranchRecord record;
    int produced = 0;
    while (bounded.next(record))
        ++produced;
    EXPECT_EQ(produced, 10);
    bounded.reset();
    produced = 0;
    while (bounded.next(record))
        ++produced;
    EXPECT_EQ(produced, 10);
}

} // namespace
} // namespace bpsim
