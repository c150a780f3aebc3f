#include "harness/json_writer.hh"

#include <charconv>
#include <limits>

#include "harness/json.hh"
#include "sim/logging.hh"

namespace hpim::harness::json {

namespace {

/** Append @p args formatted by std::to_chars. */
template <typename... Args>
void
appendChars(std::string &out, Args... args)
{
    char buf[40];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, args...).ptr);
}

/** chars_format::general at max_digits10, which the standard defines
 *  as printf's "%.17g". */
void
appendDouble(std::string &out, double value)
{
    appendChars(out, value, std::chars_format::general,
                std::numeric_limits<double>::max_digits10);
}

} // namespace

std::string
numberToString(double value)
{
    std::string out;
    appendDouble(out, value);
    return out;
}

Writer::~Writer()
{
    // A half-written document is a bug in the caller, but a destructor
    // must not throw/abort during unwinding; hand over what was built.
    flush();
}

void
Writer::flush()
{
    _os.write(_out.data(), static_cast<std::streamsize>(_out.size()));
    _out.clear();
}

void
Writer::preValue()
{
    panic_if(_root_done, "json writer: value after complete document");
    if (_expect_value) {
        _expect_value = false;
        return;
    }
    if (_stack.empty())
        return;
    panic_if(_stack.back() == Frame::Object,
             "json writer: object member needs key() first");
    if (!_first.back())
        _out += ',';
    _first.back() = false;
}

Writer &
Writer::postValue()
{
    if (_stack.empty())
        _root_done = true;
    if (_root_done || _out.size() >= flushBytes)
        flush();
    return *this;
}

Writer &
Writer::beginObject()
{
    preValue();
    _out += '{';
    _stack.push_back(Frame::Object);
    _first.push_back(true);
    return *this;
}

Writer &
Writer::endObject()
{
    panic_if(_stack.empty() || _stack.back() != Frame::Object
                 || _expect_value,
             "json writer: endObject() without matching beginObject()");
    _out += '}';
    _stack.pop_back();
    _first.pop_back();
    return postValue();
}

Writer &
Writer::beginArray()
{
    preValue();
    _out += '[';
    _stack.push_back(Frame::Array);
    _first.push_back(true);
    return *this;
}

Writer &
Writer::endArray()
{
    panic_if(_stack.empty() || _stack.back() != Frame::Array,
             "json writer: endArray() without matching beginArray()");
    _out += ']';
    _stack.pop_back();
    _first.pop_back();
    return postValue();
}

Writer &
Writer::key(std::string_view name)
{
    panic_if(_stack.empty() || _stack.back() != Frame::Object
                 || _expect_value,
             "json writer: key() outside an object");
    if (!_first.back())
        _out += ',';
    _first.back() = false;
    _out += '"';
    escape(_out, name);
    _out += "\":";
    _expect_value = true;
    return *this;
}

Writer &
Writer::value(std::string_view text)
{
    preValue();
    _out += '"';
    escape(_out, text);
    _out += '"';
    return postValue();
}

Writer &
Writer::value(double number)
{
    preValue();
    appendDouble(_out, number);
    return postValue();
}

Writer &
Writer::value(std::int64_t number)
{
    preValue();
    appendChars(_out, number);
    return postValue();
}

Writer &
Writer::value(std::uint64_t number)
{
    preValue();
    appendChars(_out, number);
    return postValue();
}

Writer &
Writer::value(bool flag)
{
    preValue();
    _out += flag ? "true" : "false";
    return postValue();
}

Writer &
Writer::valueNull()
{
    preValue();
    _out += "null";
    return postValue();
}

bool
Writer::done() const
{
    return _root_done && _stack.empty() && !_expect_value;
}

} // namespace hpim::harness::json
