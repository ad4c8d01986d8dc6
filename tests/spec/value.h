#ifndef CDPIPE_TESTS_SPEC_VALUE_H_
#define CDPIPE_TESTS_SPEC_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/common/status.h"

namespace cdpipe {

/// A single cell of a row of the row-at-a-time spec (pipeline_spec.h):
/// missing, numeric, timestamp, or string.  The compiled plan keeps typed
/// block columns instead (src/pipeline/fusion/fusion.h).
///
/// Missing values are first-class (the MissingValueImputer component exists
/// because of them).  Numeric cells are read through `AsDouble()`, which
/// widens int64 and timestamp payloads.
class Value {
 public:
  /// Missing value.
  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Double(double v) { return Value(Payload(v)); }
  static Value Int64(int64_t v) { return Value(Payload(v)); }
  static Value Timestamp(int64_t unix_seconds) {
    Value out{Payload(unix_seconds)};
    out.is_timestamp_ = true;
    return out;
  }
  static Value String(std::string v) { return Value(Payload(std::move(v))); }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_numeric() const {
    return std::holds_alternative<double>(data_) ||
           std::holds_alternative<int64_t>(data_);
  }

  /// Typed accessors; CHECK-fail on type mismatch (programmer error —
  /// pipelines validate schemas up front).  `int64_value` reads int64 and
  /// timestamp cells.
  int64_t int64_value() const;
  const std::string& string_value() const;

  /// Numeric value widened to double.  Returns FailedPrecondition for null
  /// or string cells.
  Result<double> AsDouble() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.is_timestamp_ == b.is_timestamp_ && a.data_ == b.data_;
  }

 private:
  using Payload = std::variant<std::monostate, double, int64_t, std::string>;
  explicit Value(Payload payload) : data_(std::move(payload)) {}

  Payload data_;
  bool is_timestamp_ = false;
};

}  // namespace cdpipe

#endif  // CDPIPE_TESTS_SPEC_VALUE_H_
