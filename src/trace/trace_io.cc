#include "trace/trace_io.hh"

#include <cinttypes>
#include <cstring>

#include "support/logging.hh"

namespace bpsim
{

namespace
{

constexpr char traceMagic[4] = {'B', 'P', 'T', '1'};

std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
{
    file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        bpsim_fatal("cannot open trace file '", path, "' for writing");
    if (std::fwrite(traceMagic, 1, sizeof(traceMagic), file) !=
        sizeof(traceMagic)) {
        bpsim_fatal("cannot write trace header to '", path, "'");
    }
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::putVarint(std::uint64_t value)
{
    unsigned char buf[10];
    int len = 0;
    do {
        unsigned char byte = value & 0x7f;
        value >>= 7;
        if (value != 0)
            byte |= 0x80;
        buf[len++] = byte;
    } while (value != 0);
    if (std::fwrite(buf, 1, static_cast<std::size_t>(len), file) !=
        static_cast<std::size_t>(len)) {
        bpsim_fatal("short write to trace file");
    }
}

void
TraceWriter::write(const BranchRecord &record)
{
    bpsim_assert(file != nullptr, "write to closed TraceWriter");
    bpsim_assert(record.instGap >= 1, "instGap must be >= 1");
    // Unsigned subtraction wraps with defined behaviour; read as a
    // signed value it is the plain difference whenever that fits.
    const std::int64_t delta =
        static_cast<std::int64_t>(record.pc - lastPc);
    putVarint(zigzagEncode(delta));
    putVarint((static_cast<std::uint64_t>(record.instGap) << 1) |
              (record.taken ? 1 : 0));
    lastPc = record.pc;
    ++written;
}

Count
TraceWriter::writeAll(BranchStream &source)
{
    BranchRecord record;
    Count n = 0;
    while (source.next(record)) {
        write(record);
        ++n;
    }
    return n;
}

void
TraceWriter::close()
{
    if (file != nullptr) {
        std::fclose(file);
        file = nullptr;
    }
}

TraceReader::TraceReader(const std::string &path) : path(path)
{
    file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        bpsim_fatal("cannot open trace file '", path, "'");
    readHeader();
}

TraceReader::~TraceReader()
{
    if (file != nullptr)
        std::fclose(file);
}

void
TraceReader::readHeader()
{
    char magic[4];
    if (std::fread(magic, 1, sizeof(magic), file) != sizeof(magic) ||
        std::memcmp(magic, traceMagic, sizeof(magic)) != 0) {
        bpsim_fatal("'", path, "' is not a bpsim trace file");
    }
}

bool
TraceReader::getVarint(std::uint64_t &value)
{
    value = 0;
    int shift = 0;
    for (;;) {
        const int c = std::fgetc(file);
        if (c == EOF) {
            if (shift != 0)
                bpsim_fatal("truncated varint in '", path, "'");
            return false;
        }
        value |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return true;
        shift += 7;
        if (shift >= 64)
            bpsim_fatal("overlong varint in '", path, "'");
    }
}

bool
TraceReader::next(BranchRecord &record)
{
    std::uint64_t delta_bits;
    if (!getVarint(delta_bits))
        return false;
    std::uint64_t gap_bits;
    if (!getVarint(gap_bits))
        bpsim_fatal("trace '", path, "' ends mid-record");
    // The writer's wrapping subtraction, undone by a wrapping add.
    const std::int64_t delta = zigzagDecode(delta_bits);
    lastPc += static_cast<Addr>(delta);
    record.pc = lastPc;
    record.taken = (gap_bits & 1) != 0;
    record.instGap = static_cast<std::uint32_t>(gap_bits >> 1);
    if (record.instGap == 0)
        bpsim_fatal("zero instruction gap in '", path, "'");
    return true;
}

void
TraceReader::reset()
{
    std::rewind(file);
    readHeader();
    lastPc = 0;
}

void
writeTextTrace(BranchStream &source, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        bpsim_fatal("cannot open '", path, "' for writing");
    BranchRecord record;
    while (source.next(record)) {
        std::fprintf(out, "%#" PRIx64 " %c %" PRIu32 "\n", record.pc,
                     record.taken ? 'T' : 'N', record.instGap);
    }
    std::fclose(out);
}

MemoryTrace
readTextTrace(const std::string &path)
{
    std::FILE *in = std::fopen(path.c_str(), "r");
    if (in == nullptr)
        bpsim_fatal("cannot open '", path, "'");
    MemoryTrace trace;
    std::uint64_t pc;
    char dir;
    std::uint32_t gap;
    int line = 0;
    while (std::fscanf(in, "%" SCNx64 " %c %" SCNu32, &pc, &dir, &gap) ==
           3) {
        ++line;
        if (dir != 'T' && dir != 'N') {
            std::fclose(in);
            bpsim_fatal("bad direction at line ", line, " of '", path,
                        "'");
        }
        trace.append({pc, dir == 'T', gap});
    }
    std::fclose(in);
    return trace;
}

} // namespace bpsim
