/**
 * @file
 * A streaming JSON emitter shared by every serializer in the tree.
 *
 * One writer produces all machine-readable output -- execution
 * reports (harness/report_io), sweep-journal records
 * (harness/journal) and observability traces (obs/trace) -- so the
 * escaping rules and the lossless double format live in exactly one
 * place. Output is compact (no whitespace), doubles are printed with
 * max_digits10 significant digits so strtod() recovers the exact
 * value, and strings go through json::escape. A document is built in
 * one string and written out when its root closes or the buffer
 * passes flushBytes, so callers must not write to the stream while a
 * document is open. The writer validates
 * nesting as it goes: a key outside an object, a bare value where a
 * key is required, or an unbalanced end*() panics, because every
 * caller is program-generated output where such a slip is a bug.
 */

#ifndef HPIM_HARNESS_JSON_WRITER_HH
#define HPIM_HARNESS_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hpim::harness::json {

/** @return @p value formatted with max_digits10 ("%.17g"): the
 *  shortest form strtod() maps back to the identical double. */
std::string numberToString(double value);

/** Streaming emitter; see file comment for the contract. */
class Writer
{
  public:
    /** Buffered bytes past which an open document is written out. */
    static constexpr std::size_t flushBytes = std::size_t(1) << 16;

    explicit Writer(std::ostream &os) : _os(os) {}

    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Emit an object key; the next call must produce its value. */
    Writer &key(std::string_view name);

    Writer &value(std::string_view text);
    Writer &value(const char *text) { return value(std::string_view(text)); }
    Writer &value(double number);
    Writer &value(std::int64_t number);
    Writer &value(std::uint64_t number);
    Writer &value(std::uint32_t number)
    { return value(static_cast<std::uint64_t>(number)); }
    Writer &value(std::int32_t number)
    { return value(static_cast<std::int64_t>(number)); }
    Writer &value(bool flag);
    Writer &valueNull();

    /** key() + value() in one call, for every value overload. */
    template <typename T>
    Writer &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** @return true once the single top-level value is complete. */
    bool done() const;

  private:
    enum class Frame : std::uint8_t { Object, Array };

    /** Comma/colon bookkeeping before a value or container start. */
    void preValue();
    /** Mark the root done once nothing is open; write the buffer
     *  out when the document is done or the buffer is full. */
    Writer &postValue();
    void flush();

    std::ostream &_os;
    std::string _out;
    std::vector<Frame> _stack;
    std::vector<bool> _first;   ///< first element of each open frame
    bool _expect_value = false; ///< a key was just written
    bool _root_done = false;
};

} // namespace hpim::harness::json

#endif // HPIM_HARNESS_JSON_WRITER_HH
