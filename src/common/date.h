#ifndef OJV_COMMON_DATE_H_
#define OJV_COMMON_DATE_H_

#include <cstdint>
#include <string>

namespace ojv {

/// Calendar helpers for the DATE type (int64 days since 1970-01-01).
///
/// TPC-H dates span 1992-01-01 .. 1998-12-31; views in the paper filter
/// o_orderdate ranges, so we need exact proleptic-Gregorian conversion.

/// Returns days since epoch for a calendar date. Aborts on invalid input.
int64_t DaysFromCivil(int year, int month, int day);

/// Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

/// Parses "YYYY-MM-DD" into days since epoch. Returns false, leaving
/// *days unchanged, on unparsable text, a month outside 1-12, a day
/// outside 1-31 or a year beyond +-1,000,000. Client input (SQL
/// literals, .tbl files, statement logs) goes through this.
bool TryParseDate(const std::string& text, int64_t* days);

/// TryParseDate for the program's own literals. Aborts on malformed
/// input.
int64_t ParseDate(const std::string& text);

/// Formats days-since-epoch as "YYYY-MM-DD".
std::string FormatDate(int64_t days);

}  // namespace ojv

#endif  // OJV_COMMON_DATE_H_
