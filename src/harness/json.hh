/**
 * @file
 * A minimal strict JSON reader for the harness.
 *
 * Parses the JSON that report_io writes (reports, journal records)
 * back into a document tree. Numbers keep their raw source text so
 * 64-bit counters round-trip losslessly instead of being squeezed
 * through a double. Objects preserve entry order and keep duplicate
 * keys, so a strict consumer can detect both unknown and repeated
 * fields. Every node carries the 1-based source line it started on
 * for error messages.
 */

#ifndef HPIM_HARNESS_JSON_HH
#define HPIM_HARNESS_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hpim::harness::json {

/** Malformed JSON text or a type/number conversion that cannot work. */
struct Error : std::runtime_error
{
    Error(const std::string &message, std::size_t line_number)
        : std::runtime_error("json: " + message + " (line "
                             + std::to_string(line_number) + ")"),
          line(line_number)
    {
    }

    std::size_t line; ///< 1-based source line of the offence
};

/** One JSON node. See file comment for the representation choices. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    std::size_t line = 0; ///< 1-based line the token started on

    bool boolean = false;
    std::string number; ///< raw numeric token, e.g. "-1.25e-3"
    std::string string; ///< decoded string contents
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** @return boolean contents; throws Error on kind mismatch. */
    bool asBool() const;

    /** @return string contents; throws Error on kind mismatch. */
    const std::string &asString() const;

    /** @return numeric token as a double; throws Error. */
    double asDouble() const;

    /** @return integral token as int64; throws Error on kind
     *  mismatch, a fractional value, or overflow. */
    std::int64_t asInt64() const;

    /** @return non-negative integral token as uint64; throws Error. */
    std::uint64_t asUInt64() const;

    /** @return first entry named @p key, or nullptr. Object only. */
    const Value *find(const std::string &key) const;

    /** @return entry named @p key; throws Error when absent. */
    const Value &at(const std::string &key) const;
};

/**
 * Parse one complete JSON document. Trailing non-whitespace after the
 * document is an Error, as is any syntax violation.
 */
Value parse(const std::string &text);

/** Write @p text JSON-escaped (quotes, backslashes, control chars). */
void escape(std::string &out, std::string_view text);

} // namespace hpim::harness::json

#endif // HPIM_HARNESS_JSON_HH
