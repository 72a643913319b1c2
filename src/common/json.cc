/**
 * @file
 * Shared JSON escaping and the document writer (see json.hh).
 */
#include "common/json.hh"

#include <charconv>
#include <cstdio>

namespace hoopnvm
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
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
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonQuote(std::string_view s)
{
    // Appended in place: `"\"" + jsonEscape(s)` inlines a copy that
    // GCC 12's -Wrestrict misreads as a possible self-overlap.
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

void
JsonWriter::newline(std::size_t depth)
{
    out_ += '\n';
    out_.append(2 * depth, ' ');
}

void
JsonWriter::element()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (nonEmpty_.empty())
        return; // the root value
    const bool first = !nonEmpty_.back();
    nonEmpty_.back() = true;
    if (!first)
        out_ += ',';
    if (nonEmpty_.size() <= kWrapDepth)
        newline(nonEmpty_.size());
    else if (!first)
        out_ += ' ';
}

void
JsonWriter::open(char bracket)
{
    element();
    out_ += bracket;
    nonEmpty_.push_back(false);
}

void
JsonWriter::close(char bracket)
{
    const bool wrapped =
        nonEmpty_.back() && nonEmpty_.size() <= kWrapDepth;
    nonEmpty_.pop_back();
    if (wrapped)
        newline(nonEmpty_.size());
    out_ += bracket;
    if (nonEmpty_.empty())
        out_ += '\n';
}

void
JsonWriter::key(std::string_view k)
{
    element();
    out_ += jsonQuote(k);
    out_ += ": ";
    afterKey_ = true;
}

void
JsonWriter::value(std::uint64_t v)
{
    element();
    out_ += std::to_string(v);
}

void
JsonWriter::value(double v)
{
    element();
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, r.ptr);
}

void
JsonWriter::value(bool v)
{
    element();
    out_ += v ? "true" : "false";
}

void
JsonWriter::value(std::string_view s)
{
    element();
    out_ += jsonQuote(s);
}

} // namespace hoopnvm
