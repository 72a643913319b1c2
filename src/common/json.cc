/**
 * @file
 * Shared JSON string escaping (see json.hh).
 */
#include "common/json.hh"

#include <charconv>
#include <cstdio>

namespace hoopnvm
{

std::string
jsonEscape(const std::string &s)
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
jsonQuote(const std::string &s)
{
    // Appended in place: `"\"" + jsonEscape(s)` inlines a copy that
    // GCC 12's -Wrestrict misreads as a possible self-overlap.
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

} // namespace hoopnvm
