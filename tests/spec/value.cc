#include "tests/spec/value.h"

#include "src/common/logging.h"

namespace cdpipe {

int64_t Value::int64_value() const {
  CDPIPE_CHECK(std::holds_alternative<int64_t>(data_))
      << "value is not an int64 or timestamp";
  return std::get<int64_t>(data_);
}

const std::string& Value::string_value() const {
  CDPIPE_CHECK(std::holds_alternative<std::string>(data_))
      << "value is not a string";
  return std::get<std::string>(data_);
}

Result<double> Value::AsDouble() const {
  if (std::holds_alternative<double>(data_)) return std::get<double>(data_);
  if (std::holds_alternative<int64_t>(data_)) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  return Status::FailedPrecondition(std::string("cannot widen ") +
                                    (is_null() ? "null" : "string") +
                                    " to double");
}

}  // namespace cdpipe
