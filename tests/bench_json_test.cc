/**
 * @file
 * Unit tests for the JSON string escaper and writer. RFC 8259
 * requires quotation mark, reverse solidus and ALL control characters
 * below 0x20 to be escaped — the bug this guards against escaped only
 * \n, so a label containing e.g. \x01 produced unparseable JSON. The
 * writer must also place every comma and print doubles that parse
 * back to the same value.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/json.hh"

namespace hoopnvm
{
namespace
{

TEST(JsonEscape, PlainAsciiPassesThrough)
{
    const std::string s = "hoop/vector 64B [p50=1.5]";
    EXPECT_EQ(jsonEscape(s), s);
}

TEST(JsonEscape, QuoteAndBackslash)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, ShorthandControlEscapes)
{
    EXPECT_EQ(jsonEscape("\b"), "\\b");
    EXPECT_EQ(jsonEscape("\f"), "\\f");
    EXPECT_EQ(jsonEscape("\n"), "\\n");
    EXPECT_EQ(jsonEscape("\r"), "\\r");
    EXPECT_EQ(jsonEscape("\t"), "\\t");
    EXPECT_EQ(jsonEscape("line1\nline2"), "line1\\nline2");
}

TEST(JsonEscape, EveryControlCharBelow0x20IsEscaped)
{
    // The regression: \x01, \x1f etc. used to pass through raw.
    for (int c = 0x00; c < 0x20; ++c) {
        const std::string in(1, static_cast<char>(c));
        const std::string out = jsonEscape(in);
        ASSERT_GE(out.size(), 2u) << "char " << c << " not escaped";
        EXPECT_EQ(out[0], '\\') << "char " << c;
        for (char o : out)
            EXPECT_GE(static_cast<unsigned char>(o), 0x20u)
                << "escape of char " << c
                << " still contains a control byte";
    }
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    std::string embedded = "a";
    embedded += '\x01';
    embedded += 'b';
    EXPECT_EQ(jsonEscape(embedded), "a\\u0001b");
    EXPECT_EQ(jsonEscape(std::string("\x00", 1)), "\\u0000");
}

TEST(JsonEscape, HighBytesPassThroughUnchanged)
{
    // 0x7f and UTF-8 continuation bytes are legal raw in JSON strings.
    const std::string s = "\x7f\xc3\xa9"; // DEL + e-acute in UTF-8
    EXPECT_EQ(jsonEscape(s), s);
}

TEST(JsonWriter, NestsContainersAndPlacesCommas)
{
    JsonWriter w;
    w.beginObject();
    w.field("n", std::uint64_t{3});
    w.key("list");
    w.beginArray();
    w.value(std::uint64_t{1});
    w.beginObject();
    w.field("ok", true);
    w.field("no", false);
    w.endObject();
    w.beginArray();
    w.endArray();
    w.endArray();
    w.key("empty");
    w.beginObject();
    w.endObject();
    w.endObject();
    // Two levels wrap, one element a line; the third stays inline.
    EXPECT_EQ(w.str(), "{\n"
                       "  \"n\": 3,\n"
                       "  \"list\": [\n"
                       "    1,\n"
                       "    {\"ok\": true, \"no\": false},\n"
                       "    []\n"
                       "  ],\n"
                       "  \"empty\": {}\n"
                       "}\n");
}

TEST(JsonWriter, EscapesKeysAndStringValues)
{
    JsonWriter w;
    w.beginObject();
    w.field("a\"b", "c\\d\n");
    w.field(std::string("k\x01"), std::string("v\t"));
    w.endObject();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"a\\\"b\": \"c\\\\d\\n\",\n"
                       "  \"k\\u0001\": \"v\\t\"\n"
                       "}\n");
}

TEST(JsonWriter, DoublesRoundTripExactly)
{
    // 6 significant digits (the old ostream default) would print
    // 0.123457 here.
    for (const double v : {0.1234567890123456789, 1.0 / 3.0, 2.5e-17,
                           123456789.987654321, 0.0, 7.0}) {
        JsonWriter w;
        w.value(v);
        const std::string text = w.str();
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    JsonWriter w;
    w.value(0.75);
    EXPECT_EQ(w.str(), "0.75");
}

} // namespace
} // namespace hoopnvm
