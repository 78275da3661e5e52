/**
 * @file
 * Minimal JSON reader/writer helpers.
 *
 * Just enough JSON for the repo's machine-readable records: the
 * golden-value regression files under tests/golden/ and the run
 * journal's JSONL/metrics emitters. Objects preserve member order so
 * emitted files diff cleanly; parsing is strict (trailing garbage and
 * malformed literals are fatal — these files are either generated by
 * us or hand-maintained, so a parse failure is a user/file error).
 */

#ifndef BPSIM_SUPPORT_JSON_HH
#define BPSIM_SUPPORT_JSON_HH

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hh"
#include "support/types.hh"

namespace bpsim
{

/** One parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    /**
     * Parse @p text as one JSON document. fatal() (with @p where in
     * the message) on malformed input or trailing non-whitespace.
     */
    static JsonValue parse(const std::string &text,
                           const std::string &where = "json");

    /** Parse the whole file at @p path; fatal() if unreadable. */
    static JsonValue parseFile(const std::string &path);

    /**
     * Non-fatal parse: an io_failure Error (with @p where and the
     * byte offset in the message) instead of fatal() on malformed
     * input. For readers of files the process did not generate under
     * this run — checkpoints surviving crashes, user-supplied paths.
     */
    static Result<JsonValue> tryParse(const std::string &text,
                                      const std::string &where
                                      = "json");

    Type type() const { return valueType; }
    bool isObject() const { return valueType == Type::Object; }
    bool isArray() const { return valueType == Type::Array; }
    bool isNumber() const { return valueType == Type::Number; }
    bool isString() const { return valueType == Type::String; }
    bool isBool() const { return valueType == Type::Bool; }

    /** Value accessors; fatal() on a type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements; fatal() when not an array. */
    const std::vector<JsonValue> &items() const;

    /** Object members in file order; fatal() when not an object. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Object member lookup (null when absent); fatal() when not an
     * object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member that must exist; fatal() when absent. */
    const JsonValue &at(const std::string &key) const;

  private:
    Type valueType = Type::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<JsonValue> arrayItems;
    std::vector<std::pair<std::string, JsonValue>> objectMembers;

    friend class JsonParser;
};

/**
 * Tolerant field extraction over one untrusted JSON object: absent
 * optional fields keep the caller's default, the first type mismatch
 * or missing required field is remembered, and done() reports it as
 * a config_invalid Result. JsonValue's own accessors are fatal() on
 * mismatch — fine for files we generate, unacceptable for socket
 * input or a checkpoint that survived a crash — so every reader of
 * such bytes goes through this class.
 */
class ObjectReader
{
  public:
    /** Read @p object; @p where prefixes every error message. */
    ObjectReader(const JsonValue &object, std::string where);

    void str(const char *key, std::string &out, bool required = false);

    /** A non-negative number. */
    void count(const char *key, Count &out, bool required = false);

    void size(const char *key, std::size_t &out, bool required = false);

    void number(const char *key, double &out);

    void boolean(const char *key, bool &out, bool required = false);

    /** An optional array of rows, each exactly @p width non-negative
     * numbers (a checkpoint record's compact tables); a malformed row
     * fails the whole read. */
    void rows(const char *key, std::size_t width,
              std::vector<std::vector<Count>> &out);

    /** The first problem met, as config_invalid; ok when none. */
    Result<void> done() const;

  private:
    /** Remember @p what unless an earlier problem is held. */
    void fail(const std::string &what);

    const JsonValue &object;
    std::string where;
    std::optional<Error> problem;
};

/** Escape @p text for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &text);

/** Quote and escape @p text as a JSON string literal. */
std::string jsonQuote(const std::string &text);

} // namespace bpsim

#endif // BPSIM_SUPPORT_JSON_HH
