#include "src/common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace cdpipe {

std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter) {
  std::vector<std::string_view> out;
  SplitStringInto(input, delimiter, &out);
  return out;
}

void SplitStringInto(std::string_view input, char delimiter,
                     std::vector<std::string_view>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out->push_back(input.substr(start));
      break;
    }
    out->push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

namespace {

/// The text the numeric scanners convert: `input` without surrounding
/// whitespace and one leading '+' (std::from_chars rejects an explicit
/// sign; "+1" is the canonical positive label in libsvm files).
std::string_view NumericText(std::string_view input) {
  input = StripWhitespace(input);
  if (!input.empty() && input[0] == '+') input.remove_prefix(1);
  return input;
}

/// The one numeric scanner: the whole of NumericText(input) must convert.
template <typename T>
bool ScanNumber(std::string_view input, T* out) {
  input = NumericText(input);
  if (input.empty()) return false;
  const char* end = input.data() + input.size();
  auto [ptr, ec] = std::from_chars(input.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// ScanNumber with a Status naming `what` ("a double") on failure.
template <typename T>
Result<T> ParseNumber(std::string_view input, const char* what) {
  T value{};
  if (ScanNumber(input, &value)) return value;
  const std::string_view text = NumericText(input);
  if (text.empty()) {
    return Status::InvalidArgument(std::string("empty string is not ") + what);
  }
  return Status::InvalidArgument(std::string("not ") + what + ": '" +
                                 std::string(text) + "'");
}

}  // namespace

bool ParseDoubleFast(std::string_view input, double* out) {
  return ScanNumber(input, out);
}

bool ParseInt64Fast(std::string_view input, int64_t* out) {
  return ScanNumber(input, out);
}

Result<double> ParseDouble(std::string_view input) {
  return ParseNumber<double>(input, "a double");
}

Result<int64_t> ParseInt64(std::string_view input) {
  return ParseNumber<int64_t>(input, "an int64");
}

namespace {

bool IsLeapYear(int64_t y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

// Days from 1970-01-01 to year-month-day (civil calendar), from Howard
// Hinnant's algorithms.
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

void CivilFromDays(int64_t z, int64_t* y, int64_t* m, int64_t* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yy + (*m <= 2);
}

/// Where a datetime scan failed.
enum class DateTimeFault { kNone, kShape, kField, kRange, kDay };

/// Digits-only field: the common case, without from_chars.
bool ScanDigits(std::string_view text, int64_t* out) {
  int64_t acc = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    acc = acc * 10 + (c - '0');
  }
  *out = acc;
  return true;
}

/// The one datetime scanner: "YYYY-MM-DD hh:mm:ss" in the already stripped
/// `input`, each field in ParseInt64's grammar.  On kField, `*bad_field`
/// is the field that did not parse.
DateTimeFault ScanDateTime(std::string_view input, int64_t* out,
                           std::string_view* bad_field) {
  if (input.size() != 19 || input[4] != '-' || input[7] != '-' ||
      input[10] != ' ' || input[13] != ':' || input[16] != ':') {
    return DateTimeFault::kShape;
  }
  static constexpr size_t kFieldPos[6] = {0, 5, 8, 11, 14, 17};
  int64_t field[6];
  for (size_t k = 0; k < 6; ++k) {
    const std::string_view text = input.substr(kFieldPos[k], k == 0 ? 4 : 2);
    if (!ScanDigits(text, &field[k]) && !ParseInt64Fast(text, &field[k])) {
      *bad_field = text;
      return DateTimeFault::kField;
    }
  }
  const auto [year, month, day, hour, minute, second] = field;
  static constexpr int kDaysInMonth[] = {31, 28, 31, 30, 31, 30,
                                         31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12 || day < 1 || hour > 23 || minute > 59 ||
      second > 59 || hour < 0 || minute < 0 || second < 0) {
    return DateTimeFault::kRange;
  }
  int64_t dim = kDaysInMonth[month - 1];
  if (month == 2 && IsLeapYear(year)) dim = 29;
  if (day > dim) return DateTimeFault::kDay;
  *out = DaysFromCivil(year, month, day) * 86400 + hour * 3600 + minute * 60 +
         second;
  return DateTimeFault::kNone;
}

}  // namespace

Result<int64_t> ParseDateTime(std::string_view input) {
  input = StripWhitespace(input);
  int64_t seconds = 0;
  std::string_view bad_field;
  switch (ScanDateTime(input, &seconds, &bad_field)) {
    case DateTimeFault::kNone:
      return seconds;
    case DateTimeFault::kShape:
      return Status::InvalidArgument("not a datetime: '" +
                                     std::string(input) + "'");
    case DateTimeFault::kField:
      return ParseInt64(bad_field).status();
    case DateTimeFault::kRange:
      return Status::InvalidArgument("datetime field out of range: '" +
                                     std::string(input) + "'");
    case DateTimeFault::kDay:
      break;
  }
  return Status::InvalidArgument("day out of range: '" + std::string(input) +
                                 "'");
}

bool ParseDateTimeFast(std::string_view input, int64_t* out) {
  std::string_view bad_field;
  return ScanDateTime(StripWhitespace(input), out, &bad_field) ==
         DateTimeFault::kNone;
}

std::string FormatDateTime(int64_t unix_seconds) {
  int64_t days = unix_seconds / 86400;
  int64_t rem = unix_seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    days -= 1;
  }
  int64_t y = 0;
  int64_t m = 0;
  int64_t d = 0;
  CivilFromDays(days, &y, &m, &d);
  return StrFormat("%04lld-%02lld-%02lld %02lld:%02lld:%02lld",
                   static_cast<long long>(y), static_cast<long long>(m),
                   static_cast<long long>(d),
                   static_cast<long long>(rem / 3600),
                   static_cast<long long>((rem / 60) % 60),
                   static_cast<long long>(rem % 60));
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

uint64_t Fnv1a64(std::string_view bytes) {
  // Non-standard basis, kept for format compatibility (see the header).
  uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace cdpipe
