/** @file Unit tests for the ASCII table renderer. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/table.hh"

using namespace hscd;

TEST(TextTable, BasicShape)
{
    TextTable t;
    t.col("name", TextTable::Align::Left).col("value");
    t.row().cell("alpha").cell(std::uint64_t{42});
    t.row().cell("b").cell(std::uint64_t{7});
    const std::string s = t.str();
    EXPECT_NE(s.find("| name  | value |"), std::string::npos);
    EXPECT_NE(s.find("| alpha |    42 |"), std::string::npos);
    EXPECT_NE(s.find("| b     |     7 |"), std::string::npos);
}

TEST(TextTable, DoublePrecision)
{
    TextTable t;
    t.col("v");
    t.row().cell(3.14159, 3);
    EXPECT_NE(t.str().find("3.142"), std::string::npos);
}

TEST(TextTable, RuleSeparatesSections)
{
    TextTable t;
    t.col("x");
    t.row().cell("a");
    t.rule();
    t.row().cell("b");
    const std::string s = t.str();
    // header rule + top + bottom + middle = 4 horizontal rules
    std::size_t count = 0;
    for (std::size_t pos = s.find("+--"); pos != std::string::npos;
         pos = s.find("+--", pos + 1))
        ++count;
    EXPECT_EQ(count, 4u);

    // A trailing rule has no next row to separate: the closing border
    // is drawn once.
    t.rule();
    EXPECT_EQ(t.str(), s);
}

TEST(TextTable, MissingTrailingCellsRenderEmpty)
{
    TextTable t;
    t.col("a").col("b");
    t.row().cell("only");
    EXPECT_NE(t.str().find("| only |"), std::string::npos);
}

TEST(TextTable, TooManyCellsPanics)
{
    TextTable t;
    t.col("a");
    t.row().cell("1");
    EXPECT_THROW(t.cell("2"), PanicError);
}

TEST(TextTable, CellBeforeRowPanics)
{
    TextTable t;
    t.col("a");
    EXPECT_THROW(t.cell("x"), PanicError);
}

TEST(TextTable, WidthGrowsWithContent)
{
    TextTable t;
    t.col("h");
    t.row().cell("a-very-long-cell");
    const std::string s = t.str();
    EXPECT_NE(s.find("| a-very-long-cell |"), std::string::npos);
}

TEST(TextTable, IntOverloads)
{
    TextTable t;
    t.col("a").col("b").col("c");
    t.row().cell(-3).cell(4u).cell(std::int64_t{-9});
    const std::string s = t.str();
    EXPECT_NE(s.find("-3"), std::string::npos);
    EXPECT_NE(s.find("4"), std::string::npos);
    EXPECT_NE(s.find("-9"), std::string::npos);
}
