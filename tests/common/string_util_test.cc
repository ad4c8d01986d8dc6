#include "src/common/string_util.h"

#include <cstring>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(SplitStringTest, BasicSplit) {
  const auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  const auto parts = SplitString(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, NoDelimiter) {
  const auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitStringTest, EmptyInput) {
  const auto parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("xy"), "xy");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(ParseDoubleTest, ValidValues) {
  EXPECT_DOUBLE_EQ(std::move(ParseDouble("3.25")).ValueOrDie(), 3.25);
  EXPECT_DOUBLE_EQ(std::move(ParseDouble("-1e3")).ValueOrDie(), -1000.0);
  EXPECT_DOUBLE_EQ(std::move(ParseDouble(" 7 ")).ValueOrDie(), 7.0);
  EXPECT_DOUBLE_EQ(std::move(ParseDouble("0")).ValueOrDie(), 0.0);
}

TEST(ParseDoubleTest, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("--2").ok());
}

TEST(ParseInt64Test, ValidValues) {
  EXPECT_EQ(std::move(ParseInt64("42")).ValueOrDie(), 42);
  EXPECT_EQ(std::move(ParseInt64("-7")).ValueOrDie(), -7);
  EXPECT_EQ(std::move(ParseInt64("  123 ")).ValueOrDie(), 123);
}

TEST(ParseInt64Test, Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("x").ok());
}

TEST(DateTimeTest, EpochRoundTrip) {
  EXPECT_EQ(std::move(ParseDateTime("1970-01-01 00:00:00")).ValueOrDie(), 0);
  EXPECT_EQ(FormatDateTime(0), "1970-01-01 00:00:00");
}

TEST(DateTimeTest, KnownTimestamps) {
  // 2015-01-01 00:00:00 UTC == 1420070400.
  EXPECT_EQ(std::move(ParseDateTime("2015-01-01 00:00:00")).ValueOrDie(),
            1420070400);
  EXPECT_EQ(FormatDateTime(1420070400), "2015-01-01 00:00:00");
}

TEST(DateTimeTest, RoundTripSweep) {
  // Round trip across month/era boundaries including a leap February.
  for (int64_t t : {951782399LL,    // 2000-02-28 23:59:59 (leap year)
                    951782400LL,    // 2000-02-29 00:00:00
                    1456703999LL,   // 2016-02-28 23:59:59
                    1456704000LL,   // 2016-02-29
                    1483228799LL,   // 2016-12-31 23:59:59
                    1483228800LL})  // 2017-01-01
  {
    const std::string text = FormatDateTime(t);
    EXPECT_EQ(std::move(ParseDateTime(text)).ValueOrDie(), t) << text;
  }
}

TEST(DateTimeTest, LeapDayParses) {
  EXPECT_TRUE(ParseDateTime("2016-02-29 12:00:00").ok());
  EXPECT_FALSE(ParseDateTime("2015-02-29 12:00:00").ok());
}

TEST(DateTimeTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDateTime("2015-13-01 00:00:00").ok());
  EXPECT_FALSE(ParseDateTime("2015-01-32 00:00:00").ok());
  EXPECT_FALSE(ParseDateTime("2015-01-01 24:00:00").ok());
  EXPECT_FALSE(ParseDateTime("2015-01-01 00:60:00").ok());
  EXPECT_FALSE(ParseDateTime("2015-01-01").ok());
  EXPECT_FALSE(ParseDateTime("2015/01/01 00:00:00").ok());
  EXPECT_FALSE(ParseDateTime("").ok());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(FastParseTest, AgreesWithResultVariants) {
  // The fast variants must accept exactly the grammar of the Result-based
  // ones and produce bit-identical values.
  for (const char* text :
       {"1.5", "+1", "-3.25", " 2.5 ", "1e-3", "nan", "-inf", "0.1234", "",
        "x", "1.5x", "1 2", "++1", "0x10"}) {
    double fast = 0.0;
    const bool ok = ParseDoubleFast(text, &fast);
    Result<double> slow = ParseDouble(text);
    EXPECT_EQ(ok, slow.ok()) << "'" << text << "'";
    if (ok && slow.ok()) {
      EXPECT_EQ(std::memcmp(&fast, &*slow, sizeof(double)), 0)
          << "'" << text << "'";
    }
  }
  for (const char* text :
       {"42", "+7", "-19", " 8 ", "", "x", "42x", "4.2", "99999999999999999999",
        "007"}) {
    int64_t fast = 0;
    const bool ok = ParseInt64Fast(text, &fast);
    Result<int64_t> slow = ParseInt64(text);
    EXPECT_EQ(ok, slow.ok()) << "'" << text << "'";
    if (ok && slow.ok()) {
      EXPECT_EQ(fast, *slow) << "'" << text << "'";
    }
  }
  for (const char* text :
       {"2015-01-01 00:00:00", "2016-02-29 12:34:56", "2015-02-29 12:00:00",
        "2015-13-01 00:00:00", "2015-01-01 24:00:00", "2015-01-01", "",
        " 2015-06-15 08:30:00 ", "2015-+1-01 00:00:00", "2015- 1-01 00:00:00",
        "2015--1-01 00:00:00"}) {
    int64_t fast = 0;
    const bool ok = ParseDateTimeFast(text, &fast);
    Result<int64_t> slow = ParseDateTime(text);
    EXPECT_EQ(ok, slow.ok()) << "'" << text << "'";
    if (ok && slow.ok()) {
      EXPECT_EQ(fast, *slow) << "'" << text << "'";
    }
  }
  // Datetime fields take ParseInt64's grammar: a '+' or a blank before a
  // digit parses, and a negative month is out of range.  The row-at-a-time
  // spec parses through these functions too, so this is the grammar it
  // shares with the compiled plan.
  int64_t seconds = 0;
  EXPECT_TRUE(ParseDateTimeFast("2015-+1-01 00:00:00", &seconds));
  EXPECT_EQ(seconds, 1420070400);
  EXPECT_TRUE(ParseDateTimeFast("2015- 1-01 00:00:00", &seconds));
  EXPECT_EQ(seconds, 1420070400);
  EXPECT_FALSE(ParseDateTimeFast("2015--1-01 00:00:00", &seconds));
}

}  // namespace
}  // namespace cdpipe
