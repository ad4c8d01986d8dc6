#ifndef CDPIPE_COMMON_STRING_UTIL_H_
#define CDPIPE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace cdpipe {

/// Splits `input` on `delimiter`, keeping empty fields (CSV semantics).
std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter);

/// Allocation-free variant for hot loops: clears and refills `*out`,
/// reusing its capacity across calls.
void SplitStringInto(std::string_view input, char delimiter,
                     std::vector<std::string_view>* out);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// Locale-independent numeric parsing: `from_chars` over the input without
/// surrounding whitespace and one leading '+'.  Failure is the return
/// value — parsers that drop malformed records per row should not pay for
/// an allocation per cell.
bool ParseDoubleFast(std::string_view input, double* out);
bool ParseInt64Fast(std::string_view input, int64_t* out);

/// The same scanners, with a Status that names the failure.
Result<double> ParseDouble(std::string_view input);
Result<int64_t> ParseInt64(std::string_view input);

/// Parses "YYYY-MM-DD hh:mm:ss" into seconds since 1970-01-01 00:00:00 UTC
/// (proleptic Gregorian, no leap seconds); each field in ParseInt64's
/// grammar.  This is the format of NYC taxi trip records.
bool ParseDateTimeFast(std::string_view input, int64_t* out);

/// The same scanner, with a Status that names the failure.
Result<int64_t> ParseDateTime(std::string_view input);

/// Inverse of ParseDateTime.
std::string FormatDateTime(int64_t unix_seconds);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// The FNV-1a loop over `bytes` with the 64-bit FNV prime, but started
/// from 1469598103934665603: the standard offset basis
/// 14695981039346656037 with its last digit dropped.  So this is not
/// standard FNV-1a; the basis stays because the spill-file and checkpoint
/// trailers, whose committed bytes the format tests pin, are this hash.
uint64_t Fnv1a64(std::string_view bytes);

}  // namespace cdpipe

#endif  // CDPIPE_COMMON_STRING_UTIL_H_
