#include "support/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/logging.hh"

namespace bpsim
{

namespace
{

const char *
typeName(JsonValue::Type type)
{
    switch (type) {
      case JsonValue::Type::Null:
        return "null";
      case JsonValue::Type::Bool:
        return "bool";
      case JsonValue::Type::Number:
        return "number";
      case JsonValue::Type::String:
        return "string";
      case JsonValue::Type::Array:
        return "array";
      case JsonValue::Type::Object:
        return "object";
    }
    return "?";
}

} // namespace

/** Recursive-descent parser over a complete in-memory document. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, const std::string &where)
        : text(text), where(where)
    {
    }

    JsonValue
    document()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing characters after the document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        // Thrown as a structured error so tryParse() can return it;
        // the fatal entry point catches and keeps its old behaviour.
        raise(Error(ErrorCode::IoFailure,
                    where + ": offset " + std::to_string(pos) + ": " +
                        message));
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text[pos] + "'");
        ++pos;
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p, ++pos) {
            if (pos >= text.size() || text[pos] != *p)
                fail(std::string("malformed literal (expected ") +
                     word + ")");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out.push_back(esc);
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                // \uXXXX: decode to UTF-8 (BMP only; good enough for
                // the ASCII-centric files we read).
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default:
                fail("unknown escape character");
            }
        }
    }

    JsonValue
    parseValue()
    {
        JsonValue value;
        const char c = peek();
        switch (c) {
          case '{': {
            ++pos;
            value.valueType = JsonValue::Type::Object;
            if (consume('}'))
                return value;
            while (true) {
                std::string key = parseString();
                expect(':');
                value.objectMembers.emplace_back(std::move(key),
                                                 parseValue());
                if (consume('}'))
                    return value;
                expect(',');
            }
          }
          case '[': {
            ++pos;
            value.valueType = JsonValue::Type::Array;
            if (consume(']'))
                return value;
            while (true) {
                value.arrayItems.push_back(parseValue());
                if (consume(']'))
                    return value;
                expect(',');
            }
          }
          case '"':
            value.valueType = JsonValue::Type::String;
            value.stringValue = parseString();
            return value;
          case 't':
            literal("true");
            value.valueType = JsonValue::Type::Bool;
            value.boolValue = true;
            return value;
          case 'f':
            literal("false");
            value.valueType = JsonValue::Type::Bool;
            value.boolValue = false;
            return value;
          case 'n':
            literal("null");
            value.valueType = JsonValue::Type::Null;
            return value;
          default: {
            if (c != '-' && !std::isdigit(static_cast<unsigned char>(c)))
                fail(std::string("unexpected character '") + c + "'");
            const char *start = text.c_str() + pos;
            char *end = nullptr;
            value.valueType = JsonValue::Type::Number;
            value.numberValue = std::strtod(start, &end);
            if (end == start)
                fail("malformed number");
            pos += static_cast<std::size_t>(end - start);
            return value;
          }
        }
    }

    const std::string &text;
    const std::string &where;
    std::size_t pos = 0;
};

JsonValue
JsonValue::parse(const std::string &text, const std::string &where)
{
    Result<JsonValue> parsed = tryParse(text, where);
    if (!parsed.ok())
        bpsim_fatal(parsed.error().message());
    return std::move(parsed.value());
}

Result<JsonValue>
JsonValue::tryParse(const std::string &text, const std::string &where)
{
    try {
        return JsonParser(text, where).document();
    } catch (const ErrorException &failure) {
        return failure.error();
    }
}

JsonValue
JsonValue::parseFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        bpsim_fatal("cannot read '", path, "'");
    std::string text;
    char chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
        text.append(chunk, got);
    std::fclose(file);
    return parse(text, path);
}

bool
JsonValue::asBool() const
{
    if (valueType != Type::Bool)
        bpsim_fatal("json: expected bool, got ", typeName(valueType));
    return boolValue;
}

double
JsonValue::asNumber() const
{
    if (valueType != Type::Number)
        bpsim_fatal("json: expected number, got ", typeName(valueType));
    return numberValue;
}

const std::string &
JsonValue::asString() const
{
    if (valueType != Type::String)
        bpsim_fatal("json: expected string, got ", typeName(valueType));
    return stringValue;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (valueType != Type::Array)
        bpsim_fatal("json: expected array, got ", typeName(valueType));
    return arrayItems;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (valueType != Type::Object)
        bpsim_fatal("json: expected object, got ", typeName(valueType));
    return objectMembers;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : members()) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *value = find(key);
    if (value == nullptr)
        bpsim_fatal("json: missing key '", key, "'");
    return *value;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &text)
{
    return "\"" + jsonEscape(text) + "\"";
}

ObjectReader::ObjectReader(const JsonValue &object, std::string where)
    : object(object), where(std::move(where))
{
}

void
ObjectReader::str(const char *key, std::string &out, bool required)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr) {
        if (required)
            fail(std::string("missing field '") + key + "'");
        return;
    }
    if (!value->isString()) {
        fail(std::string("field '") + key + "' must be a string");
        return;
    }
    out = value->asString();
}

void
ObjectReader::count(const char *key, Count &out, bool required)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr) {
        if (required)
            fail(std::string("missing field '") + key + "'");
        return;
    }
    if (!value->isNumber() || value->asNumber() < 0) {
        fail(std::string("field '") + key +
             "' must be a non-negative number");
        return;
    }
    out = static_cast<Count>(value->asNumber());
}

void
ObjectReader::size(const char *key, std::size_t &out, bool required)
{
    Count value = out;
    count(key, value, required);
    out = static_cast<std::size_t>(value);
}

void
ObjectReader::number(const char *key, double &out)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        return;
    if (!value->isNumber()) {
        fail(std::string("field '") + key + "' must be a number");
        return;
    }
    out = value->asNumber();
}

void
ObjectReader::boolean(const char *key, bool &out, bool required)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr) {
        if (required)
            fail(std::string("missing field '") + key + "'");
        return;
    }
    if (!value->isBool()) {
        fail(std::string("field '") + key + "' must be a bool");
        return;
    }
    out = value->asBool();
}

void
ObjectReader::rows(const char *key, std::size_t width,
                   std::vector<std::vector<Count>> &out)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        return;
    bool valid = value->isArray();
    for (std::size_t r = 0; valid && r < value->items().size(); ++r) {
        const JsonValue &row = value->items()[r];
        valid = row.isArray() && row.items().size() == width;
        std::vector<Count> numbers;
        for (std::size_t i = 0; valid && i < width; ++i) {
            const JsonValue &element = row.items()[i];
            valid = element.isNumber() && element.asNumber() >= 0;
            if (valid)
                numbers.push_back(static_cast<Count>(element.asNumber()));
        }
        if (valid)
            out.push_back(std::move(numbers));
    }
    if (!valid) {
        fail(std::string("field '") + key + "' must be an array of " +
             std::to_string(width) + "-number rows");
    }
}

void
ObjectReader::fail(const std::string &what)
{
    if (!problem)
        problem = Error(ErrorCode::ConfigInvalid, where + ": " + what);
}

Result<void>
ObjectReader::done() const
{
    if (problem)
        return *problem;
    return okResult();
}

} // namespace bpsim
