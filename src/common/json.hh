/**
 * @file
 * Shared JSON emission: string escaping and a small document writer.
 *
 * Every place that emits a runtime string into a JSON document must
 * route it through jsonEscape/jsonQuote or JsonWriter: workload
 * names or fault descriptions containing quotes, backslashes or
 * control characters otherwise silently corrupt the report.
 * hoop_lint's raw-json rule enforces this; the helpers live in
 * src/common so both the library (fleet/soak/trace emitters) and the
 * bench harness can link them.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hoopnvm
{

/** Escape s for inclusion inside a JSON string literal (RFC 8259):
 *  backslash, double quote, and all control characters below 0x20. */
std::string jsonEscape(std::string_view s);

/** jsonEscape(s) wrapped in double quotes — a complete JSON string. */
std::string jsonQuote(std::string_view s);

/**
 * Streaming writer for one JSON document. It places the commas,
 * escapes every key and string value, and prints each double in the
 * shortest form that parses back (strtod) to the identical value, so
 * reports and replayable specs never lose precision. The elements of
 * the outermost kWrapDepth levels of containers go on their own
 * indented lines; deeper containers stay on one line. Closing the
 * root container ends the document with a newline.
 */
class JsonWriter
{
  public:
    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** Name the next member of the enclosing object. */
    void key(std::string_view k);

    void value(std::uint64_t v);
    void value(unsigned v) { value(std::uint64_t{v}); }
    void value(double v);
    void value(bool v);
    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }

    /** key(k) then value(v). */
    template <typename T>
    void
    field(std::string_view k, const T &v)
    {
        key(k);
        value(v);
    }

    /** The document written so far. */
    const std::string &str() const { return out_; }

  private:
    /** Comma and line break before a new element of the open container. */
    void element();
    void open(char bracket);
    void close(char bracket);
    void newline(std::size_t depth);

    /** Container levels whose elements each get their own line. */
    static constexpr std::size_t kWrapDepth = 2;

    std::string out_;

    /** Per open container: has it written an element yet? */
    std::vector<bool> nonEmpty_;

    /** A key was just written; its value needs no separator. */
    bool afterKey_ = false;
};

} // namespace hoopnvm
