#include "common/date.h"

#include <gtest/gtest.h>

namespace ojv {
namespace {

TEST(DateTest, EpochIsZero) { EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0); }

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
}

TEST(DateTest, RoundTripAcrossTpchRange) {
  for (int64_t d = DaysFromCivil(1992, 1, 1); d <= DaysFromCivil(1998, 12, 31);
       d += 13) {
    int y, m, day;
    CivilFromDays(d, &y, &m, &day);
    EXPECT_EQ(DaysFromCivil(y, m, day), d);
  }
}

TEST(DateTest, LeapYears) {
  EXPECT_EQ(DaysFromCivil(1996, 3, 1) - DaysFromCivil(1996, 2, 28), 2);
  EXPECT_EQ(DaysFromCivil(1900, 3, 1) - DaysFromCivil(1900, 2, 28), 1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1) - DaysFromCivil(2000, 2, 28), 2);
}

TEST(DateTest, ParseAndFormat) {
  EXPECT_EQ(ParseDate("1994-06-01"), DaysFromCivil(1994, 6, 1));
  EXPECT_EQ(FormatDate(ParseDate("1994-12-31")), "1994-12-31");
  EXPECT_EQ(FormatDate(0), "1970-01-01");
}

TEST(DateTest, TryParseDateRejectsMalformedInput) {
  int64_t days = -7;
  EXPECT_TRUE(TryParseDate("1994-06-01", &days));
  EXPECT_EQ(days, DaysFromCivil(1994, 6, 1));
  EXPECT_TRUE(TryParseDate("1994-12-31", &days));
  EXPECT_EQ(days, ParseDate("1994-12-31"));

  days = -7;
  for (const char* bad : {"soon", "", "1995-13-01", "1995-00-10",
                          "1995-01-32", "1995-01-00", "1995-01", "1995/01/01",
                          "-2147483648-01-01"}) {
    EXPECT_FALSE(TryParseDate(bad, &days)) << bad;
    EXPECT_EQ(days, -7) << bad;  // left unchanged
  }
}

TEST(DateTest, OrderingMatchesCalendar) {
  EXPECT_LT(ParseDate("1994-06-01"), ParseDate("1994-12-31"));
  EXPECT_LT(ParseDate("1993-12-31"), ParseDate("1994-01-01"));
}

}  // namespace
}  // namespace ojv
