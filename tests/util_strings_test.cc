#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "util/string_util.h"
#include "util/table_printer.h"

namespace smokescreen {
namespace util {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(PrefixSuffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("smokescreen", "smoke"));
  EXPECT_FALSE(StartsWith("smoke", "smokescreen"));
  EXPECT_TRUE(EndsWith("profile.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "profile.csv"));
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.123456, 4), "0.1235");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(FormatTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.1418), "14.18%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

TEST(ParseIntTest, ParsesValidIntegers) {
  auto v = ParseInt("42");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_EQ(*ParseInt("0"), 0);
  EXPECT_EQ(*ParseInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt("-9223372036854775808"), INT64_MIN);
}

TEST(ParseIntTest, TrimsSurroundingWhitespace) {
  EXPECT_EQ(*ParseInt("  15 \t"), 15);
}

TEST(ParseIntTest, RejectsMalformedInput) {
  EXPECT_EQ(ParseInt("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt("   ").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt("12x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt("x12").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt("4.5").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt("1 2").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt("+").status().code(), StatusCode::kInvalidArgument);
  // atoi would silently have returned 0 for every one of these.
}

TEST(ParseIntTest, RejectsOverflow) {
  EXPECT_EQ(ParseInt("9223372036854775808").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseInt("-9223372036854775809").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseInt("99999999999999999999999").status().code(), StatusCode::kOutOfRange);
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  auto v = ParseDouble("0.25");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1.5e3"), -1500.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("  3 "), 3.0);
  EXPECT_DOUBLE_EQ(*ParseDouble(".5"), 0.5);
}

TEST(ParseDoubleTest, AcceptsNonFiniteSpellings) {
  // Profile bounds can legitimately round-trip as inf.
  EXPECT_TRUE(std::isinf(*ParseDouble("inf")));
  EXPECT_TRUE(std::isnan(*ParseDouble("nan")));
}

TEST(ParseDoubleTest, RejectsMalformedInput) {
  EXPECT_EQ(ParseDouble("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("abc").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("1.2.3").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("0.5x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("- 1").status().code(), StatusCode::kInvalidArgument);
  // atof would silently have returned 0.0 (or a truncated prefix) here.
}

TEST(ParseDoubleTest, RejectsOverflow) {
  EXPECT_EQ(ParseDouble("1e999").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseDouble("-1e999").status().code(), StatusCode::kOutOfRange);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow(std::vector<std::string>{"xxxx", "1"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("a     long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow(std::vector<std::string>{"1"});
  std::ostringstream os;
  t.Print(os);  // Must not crash; missing cells become empty.
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TablePrinterTest, DoubleRowsAreFormatted) {
  TablePrinter t({"x", "y"});
  t.AddRow(std::vector<double>{0.5, 1.25});
  EXPECT_NE(t.ToCsv().find("0.5000,1.2500"), std::string::npos);
}

TEST(TablePrinterTest, ToCsvHasHeaderAndRows) {
  TablePrinter t({"h1", "h2"});
  t.AddRow(std::vector<std::string>{"v1", "v2"});
  EXPECT_EQ(t.ToCsv(), "h1,h2\nv1,v2\n");
}

// Timer tests live in util_timer_test.cc.

}  // namespace
}  // namespace util
}  // namespace smokescreen
