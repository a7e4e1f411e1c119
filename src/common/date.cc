#include "common/date.h"

#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace ojv {

// Algorithms from Howard Hinnant's chrono-compatible date algorithms.
int64_t DaysFromCivil(int year, int month, int day) {
  OJV_CHECK(month >= 1 && month <= 12, "month out of range");
  OJV_CHECK(day >= 1 && day <= 31, "day out of range");
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(day) - 1u;
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) -
         719468;
}

void CivilFromDays(int64_t days, int* year, int* month, int* day) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  *year = static_cast<int>(y + (*month <= 2));
}

bool TryParseDate(const std::string& text, int64_t* days) {
  int y = 0;
  int m = 0;
  int d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) return false;
  if (m < 1 || m > 12 || d < 1 || d > 31) return false;
  // DaysFromCivil's int arithmetic overflows for years near INT_MIN.
  if (y < -1000000 || y > 1000000) return false;
  *days = DaysFromCivil(y, m, d);
  return true;
}

int64_t ParseDate(const std::string& text) {
  int64_t days = 0;
  OJV_CHECK(TryParseDate(text, &days), "malformed date");
  return days;
}

std::string FormatDate(int64_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

}  // namespace ojv
