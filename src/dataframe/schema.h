#ifndef CDPIPE_DATAFRAME_SCHEMA_H_
#define CDPIPE_DATAFRAME_SCHEMA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace cdpipe {

/// Column types understood by the pipeline components.
enum class ValueType {
  kNull = 0,   ///< missing value
  kDouble,     ///< 64-bit float
  kInt64,      ///< 64-bit integer
  kTimestamp,  ///< seconds since the Unix epoch, stored as int64
  kString,     ///< UTF-8 text / categorical value
};

const char* ValueTypeName(ValueType type);

/// A named, typed column.
struct Field {
  std::string name;
  ValueType type = ValueType::kNull;

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// Ordered collection of fields with O(1) name lookup.  Schemas are
/// immutable after construction and shared between chunks via shared_ptr.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  /// Fails with AlreadyExists on duplicate field names.
  static Result<std::shared_ptr<const Schema>> Make(std::vector<Field> fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field with `name`, or NotFound.
  Result<size_t> FieldIndex(const std::string& name) const;
  bool HasField(const std::string& name) const;

  /// A new schema with `field` appended; fails on duplicate name.
  Result<std::shared_ptr<const Schema>> AddField(Field field) const;

  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace cdpipe

#endif  // CDPIPE_DATAFRAME_SCHEMA_H_
