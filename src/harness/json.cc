#include "harness/json.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hpim::harness::json {

namespace {

const char *
kindName(Value::Kind kind)
{
    switch (kind) {
      case Value::Kind::Null:   return "null";
      case Value::Kind::Bool:   return "bool";
      case Value::Kind::Number: return "number";
      case Value::Kind::String: return "string";
      case Value::Kind::Array:  return "array";
      case Value::Kind::Object: return "object";
    }
    return "?";
}

[[noreturn]] void
wrongKind(const Value &value, Value::Kind wanted)
{
    throw Error(std::string("expected ") + kindName(wanted) + ", got "
                    + kindName(value.kind),
                value.line);
}

/** Recursive-descent parser over the whole document. */
class Parser
{
  public:
    explicit Parser(const std::string &text)
        : _p(text.data()), _end(text.data() + text.size())
    {
    }

    Value
    document()
    {
        Value value = parseValue();
        skipSpace();
        if (_p != _end)
            fail("trailing characters after document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw Error(message, _line);
    }

    void
    skipSpace()
    {
        while (_p != _end && (*_p == ' ' || *_p == '\t' || *_p == '\n'
                              || *_p == '\r')) {
            if (*_p == '\n')
                ++_line;
            ++_p;
        }
    }

    char
    peek()
    {
        if (_p == _end)
            fail("unexpected end of document");
        return *_p;
    }

    void
    expect(char c)
    {
        if (_p == _end || *_p != c)
            fail(std::string("expected '") + c + "'");
        ++_p;
    }

    bool
    consumeWord(const char *word)
    {
        const char *q = _p;
        for (const char *w = word; *w; ++w, ++q)
            if (q == _end || *q != *w)
                return false;
        _p = q;
        return true;
    }

    Value
    parseValue()
    {
        skipSpace();
        Value value;
        value.line = _line;
        switch (peek()) {
          case '{': parseObject(value); break;
          case '[': parseArray(value); break;
          case '"':
            value.kind = Value::Kind::String;
            value.string = parseString();
            break;
          case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            value.kind = Value::Kind::Bool;
            value.boolean = true;
            break;
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            value.kind = Value::Kind::Bool;
            value.boolean = false;
            break;
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            value.kind = Value::Kind::Null;
            break;
          default:
            value.kind = Value::Kind::Number;
            value.number = parseNumber();
            break;
        }
        return value;
    }

    void
    parseObject(Value &value)
    {
        value.kind = Value::Kind::Object;
        expect('{');
        skipSpace();
        if (peek() == '}') {
            ++_p;
            return;
        }
        for (;;) {
            skipSpace();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipSpace();
            expect(':');
            value.object.emplace_back(std::move(key), parseValue());
            skipSpace();
            char c = peek();
            ++_p;
            if (c == '}')
                return;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    void
    parseArray(Value &value)
    {
        value.kind = Value::Kind::Array;
        expect('[');
        skipSpace();
        if (peek() == ']') {
            ++_p;
            return;
        }
        for (;;) {
            value.array.push_back(parseValue());
            skipSpace();
            char c = peek();
            ++_p;
            if (c == ']')
                return;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (_p == _end)
                fail("unterminated string");
            char c = *_p++;
            if (c == '"')
                return out;
            if (c == '\n')
                fail("raw newline in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (_p == _end)
                fail("unterminated escape");
            char e = *_p++;
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': appendCodepoint(out, parseHex4()); break;
              default: fail("unknown escape");
            }
        }
    }

    unsigned
    parseHex4()
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            if (_p == _end)
                fail("unterminated \\u escape");
            char c = *_p++;
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= unsigned(c - 'A' + 10);
            else
                fail("bad \\u escape digit");
        }
        return value;
    }

    static void
    appendCodepoint(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(char(cp));
        } else if (cp < 0x800) {
            out.push_back(char(0xc0 | (cp >> 6)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(char(0xe0 | (cp >> 12)));
            out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        }
    }

    std::string
    parseNumber()
    {
        const char *start = _p;
        if (_p != _end && *_p == '-')
            ++_p;
        bool digits = false;
        while (_p != _end && *_p >= '0' && *_p <= '9') {
            ++_p;
            digits = true;
        }
        if (_p != _end && *_p == '.') {
            ++_p;
            while (_p != _end && *_p >= '0' && *_p <= '9')
                ++_p;
        }
        if (_p != _end && (*_p == 'e' || *_p == 'E')) {
            ++_p;
            if (_p != _end && (*_p == '+' || *_p == '-'))
                ++_p;
            while (_p != _end && *_p >= '0' && *_p <= '9')
                ++_p;
        }
        if (!digits)
            fail("expected a value");
        return std::string(start, _p);
    }

    const char *_p;
    const char *_end;
    std::size_t _line = 1;
};

} // namespace

bool
Value::asBool() const
{
    if (kind != Kind::Bool)
        wrongKind(*this, Kind::Bool);
    return boolean;
}

const std::string &
Value::asString() const
{
    if (kind != Kind::String)
        wrongKind(*this, Kind::String);
    return string;
}

double
Value::asDouble() const
{
    if (kind != Kind::Number)
        wrongKind(*this, Kind::Number);
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(number.c_str(), &end);
    if (end != number.c_str() + number.size())
        throw Error("malformed number '" + number + "'", line);
    return value;
}

std::int64_t
Value::asInt64() const
{
    if (kind != Kind::Number)
        wrongKind(*this, Kind::Number);
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(number.c_str(), &end, 10);
    if (end != number.c_str() + number.size() || errno == ERANGE)
        throw Error("expected an integer, got '" + number + "'", line);
    return value;
}

std::uint64_t
Value::asUInt64() const
{
    if (kind != Kind::Number)
        wrongKind(*this, Kind::Number);
    if (!number.empty() && number[0] == '-')
        throw Error("expected a non-negative integer, got '" + number
                        + "'",
                    line);
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(number.c_str(), &end, 10);
    if (end != number.c_str() + number.size() || errno == ERANGE)
        throw Error("expected an integer, got '" + number + "'", line);
    return value;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        wrongKind(*this, Kind::Object);
    for (const auto &[name, value] : object)
        if (name == key)
            return &value;
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *value = find(key);
    if (!value)
        throw Error("missing key '" + key + "'", line);
    return *value;
}

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

void
escape(std::string &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
}

} // namespace hpim::harness::json
