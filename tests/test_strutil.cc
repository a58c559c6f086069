/** @file Unit tests for common/strutil. */

#include <gtest/gtest.h>

#include "common/strutil.hh"
#include "obs/provenance.hh"
#include "verify/diagnostic.hh"

using namespace hscd;

TEST(Csprintf, PlainText)
{
    EXPECT_EQ(csprintf("hello"), "hello");
    EXPECT_EQ(csprintf(""), "");
}

TEST(Csprintf, PercentEscape)
{
    EXPECT_EQ(csprintf("100%%"), "100%");
    EXPECT_EQ(csprintf("%d%%", 42), "42%");
}

TEST(Csprintf, Integers)
{
    EXPECT_EQ(csprintf("%d", 42), "42");
    EXPECT_EQ(csprintf("%d", -7), "-7");
    EXPECT_EQ(csprintf("v=%u end", 123u), "v=123 end");
}

TEST(Csprintf, Width)
{
    EXPECT_EQ(csprintf("%5d", 42), "   42");
    EXPECT_EQ(csprintf("%-5d|", 42), "42   |");
    EXPECT_EQ(csprintf("%05d", 42), "00042");
}

TEST(Csprintf, Floats)
{
    EXPECT_EQ(csprintf("%.2f", 3.14159), "3.14");
    EXPECT_EQ(csprintf("%.0f", 2.6), "3");
    EXPECT_EQ(csprintf("%8.3f", 1.5), "   1.500");
}

TEST(Csprintf, Hex)
{
    EXPECT_EQ(csprintf("%x", 255), "ff");
    EXPECT_EQ(csprintf("%X", 255), "FF");
}

TEST(Csprintf, Strings)
{
    EXPECT_EQ(csprintf("%s world", "hello"), "hello world");
    EXPECT_EQ(csprintf("%s", std::string("abc")), "abc");
}

TEST(Csprintf, MultipleArgs)
{
    EXPECT_EQ(csprintf("%s=%d (%.1f%%)", "hits", 9, 12.35),
              "hits=9 (12.3%)");
}

TEST(Csprintf, StateDoesNotLeakAcrossConversions)
{
    // A %x conversion must not leave later %d conversions in hex.
    EXPECT_EQ(csprintf("%x %d", 16, 16), "10 16");
    EXPECT_EQ(csprintf("%05d %d", 1, 1), "00001 1");
}

TEST(Csprintf, LengthModifiersIgnored)
{
    EXPECT_EQ(csprintf("%lld", static_cast<long long>(1) << 40),
              "1099511627776");
    EXPECT_EQ(csprintf("%zu", static_cast<std::size_t>(7)), "7");
}

TEST(Split, Basic)
{
    auto v = split("a,b,c", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "c");
}

TEST(Split, DropsEmptyByDefault)
{
    auto v = split(",a,,b,", ',');
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "b");
}

TEST(Split, KeepEmpty)
{
    auto v = split("a,,b", ',', true);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], "");
}

TEST(Split, EmptyInput)
{
    EXPECT_TRUE(split("", ',').empty());
    auto v = split("", ',', true);
    ASSERT_EQ(v.size(), 1u);
}

TEST(Trim, Basic)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(ToLower, Basic)
{
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_EQ(toLower("123-X"), "123-x");
}

TEST(WithCommas, Basic)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567), "1,234,567");
    EXPECT_EQ(withCommas(1000000000ULL), "1,000,000,000");
}

TEST(ParseBool, Accepts)
{
    EXPECT_TRUE(parseBool("1"));
    EXPECT_TRUE(parseBool("true"));
    EXPECT_TRUE(parseBool(" YES "));
    EXPECT_TRUE(parseBool("on"));
    EXPECT_FALSE(parseBool("0"));
    EXPECT_FALSE(parseBool("False"));
    EXPECT_FALSE(parseBool("no"));
    EXPECT_FALSE(parseBool("off"));
}

TEST(ParseBool, RejectsJunk)
{
    EXPECT_THROW(parseBool("maybe"), std::invalid_argument);
    EXPECT_THROW(parseBool(""), std::invalid_argument);
}

TEST(JsonEscape, OneSpellingForEveryCaller)
{
    // '\r' takes the short escape, like '\n' and '\t'.
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
    EXPECT_EQ(jsonEscape("\"\\\n\t\r\x1f"), "\\\"\\\\\\n\\t\\r\\u001f");
    EXPECT_EQ(obs::jsonEscape("x\ry"), "x\\ry");
    EXPECT_EQ(verify::jsonEscape("x\ry"), "x\\ry");
}
