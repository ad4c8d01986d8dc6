#include "src/dataframe/column.h"

#include "src/common/logging.h"

namespace cdpipe {
namespace {

bool IsIntLike(ValueType type) {
  return type == ValueType::kInt64 || type == ValueType::kTimestamp;
}

}  // namespace

void Column::EnsureBitmap() {
  // The bitmap trails the column lazily: it is empty until the first null,
  // then always sized for the current row count.
  null_words_.resize((size_ + 64) >> 6, 0);
}

void Column::AppendDouble(double v) {
  CDPIPE_CHECK(type_ == ValueType::kDouble);
  doubles_.push_back(v);
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendInt64(int64_t v) {
  CDPIPE_CHECK(IsIntLike(type_));
  ints_.push_back(v);
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendString(std::string_view v) {
  CDPIPE_CHECK(type_ == ValueType::kString);
  CDPIPE_CHECK(!borrowed_);
  if (offsets_.empty()) offsets_.push_back(0);
  arena_.append(v.data(), v.size());
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendBorrowedString(std::string_view v) {
  CDPIPE_CHECK(type_ == ValueType::kString);
  CDPIPE_CHECK(arena_.empty());
  borrowed_ = true;
  views_.push_back(v);
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      ints_.push_back(0);
      break;
    case ValueType::kString:
      if (borrowed_) {
        views_.push_back(std::string_view());
      } else {
        if (offsets_.empty()) offsets_.push_back(0);
        offsets_.push_back(static_cast<uint32_t>(arena_.size()));
      }
      break;
    case ValueType::kNull:
      break;
  }
  ++size_;
  EnsureBitmap();
  null_words_[(size_ - 1) >> 6] |= uint64_t{1} << ((size_ - 1) & 63u);
}

void Column::Reserve(size_t rows) {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.reserve(rows);
      break;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      ints_.reserve(rows);
      break;
    case ValueType::kString:
      if (borrowed_) {
        views_.reserve(rows);
      } else {
        offsets_.reserve(rows + 1);
      }
      break;
    case ValueType::kNull:
      break;
  }
}

void Column::MarkNull(size_t i) {
  CDPIPE_CHECK(i < size_);
  EnsureBitmap();
  null_words_[i >> 6] |= uint64_t{1} << (i & 63u);
}

size_t Column::ByteSize() const {
  size_t total = doubles_.size() * sizeof(double) +
                 ints_.size() * sizeof(int64_t) + arena_.size() +
                 offsets_.size() * sizeof(uint32_t) +
                 views_.size() * sizeof(std::string_view) +
                 null_words_.size() * sizeof(uint64_t);
  return total;
}

}  // namespace cdpipe
