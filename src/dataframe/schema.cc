#include "src/dataframe/schema.h"

namespace cdpipe {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kDouble:
      return "double";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kTimestamp:
      return "timestamp";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (size_t i = 0; i < fields_.size(); ++i) {
    index_.emplace(fields_[i].name, i);
  }
}

Result<std::shared_ptr<const Schema>> Schema::Make(std::vector<Field> fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    for (size_t j = i + 1; j < fields.size(); ++j) {
      if (fields[i].name == fields[j].name) {
        return Status::AlreadyExists("duplicate field name: " +
                                     fields[i].name);
      }
    }
  }
  return std::shared_ptr<const Schema>(new Schema(std::move(fields)));
}

Result<size_t> Schema::FieldIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no field named '" + name + "' in schema " +
                            ToString());
  }
  return it->second;
}

bool Schema::HasField(const std::string& name) const {
  return index_.count(name) > 0;
}

Result<std::shared_ptr<const Schema>> Schema::AddField(Field field) const {
  if (HasField(field.name)) {
    return Status::AlreadyExists("duplicate field name: " + field.name);
  }
  std::vector<Field> fields = fields_;
  fields.push_back(std::move(field));
  return std::shared_ptr<const Schema>(new Schema(std::move(fields)));
}

std::string Schema::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ": ";
    out += ValueTypeName(fields_[i].type);
  }
  out += "}";
  return out;
}

}  // namespace cdpipe
