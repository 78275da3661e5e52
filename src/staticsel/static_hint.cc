#include "staticsel/static_hint.hh"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/logging.hh"

namespace bpsim
{

void
HintDb::save(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        bpsim_fatal("cannot open hint db '", path, "' for writing");
    for (const auto &[pc, taken] : hints)
        std::fprintf(out, "%#" PRIx64 " %c\n", pc, taken ? 'T' : 'N');
    std::fclose(out);
}

namespace
{

/** Why @p line is not a hint record ("pc T|N"), or null when it is
 * one. The PC is hexadecimal with an optional 0x. */
const char *
parseHint(const std::string &line, Addr &pc, bool &taken)
{
    const char *cursor = line.c_str();
    while (*cursor == ' ' || *cursor == '\t')
        ++cursor;
    if (!std::isxdigit(static_cast<unsigned char>(*cursor)))
        return "expected a hexadecimal pc";
    char *end = nullptr;
    errno = 0;
    pc = std::strtoull(cursor, &end, 16);
    if (errno == ERANGE || (*end != ' ' && *end != '\t'))
        return "expected 'pc direction'";
    cursor = end;
    while (*cursor == ' ' || *cursor == '\t')
        ++cursor;
    if (*cursor != 'T' && *cursor != 'N')
        return "the direction must be T or N";
    taken = *cursor++ == 'T';
    while (*cursor == ' ' || *cursor == '\t' || *cursor == '\r')
        ++cursor;
    if (*cursor != '\0')
        return "trailing characters after the direction";
    return nullptr;
}

} // namespace

Result<HintDb>
HintDb::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Error(ErrorCode::IoFailure, "cannot open hint db")
            .withContext("path " + path);
    HintDb db;
    std::string line;
    for (Count number = 1; std::getline(in, line); ++number) {
        Addr pc = 0;
        bool taken = false;
        const char *problem = parseHint(line, pc, taken);
        if (problem == nullptr && !db.hints.emplace(pc, taken).second)
            problem = "the pc appears on an earlier line";
        if (problem != nullptr) {
            return Error(ErrorCode::IoFailure,
                         std::string("malformed hint line: ") + problem)
                .withContext(path + ":" + std::to_string(number));
        }
    }
    if (in.bad())
        return Error(ErrorCode::IoFailure, "cannot read hint db")
            .withContext("path " + path);
    return db;
}

} // namespace bpsim
