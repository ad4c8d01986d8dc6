#include "src/dataframe/chunk.h"

#include <utility>

namespace cdpipe {

size_t FeatureData::ByteSize() const {
  size_t total = labels.size() * sizeof(double);
  for (const SparseVector& f : features) total += f.ByteSize();
  return total;
}

Status FeatureData::Validate() const {
  if (features.size() != labels.size()) {
    return Status::Internal(
        "feature/label count mismatch: " + std::to_string(features.size()) +
        " vs " + std::to_string(labels.size()));
  }
  for (const SparseVector& f : features) {
    if (f.dim() != dim) {
      return Status::Internal("feature dim " + std::to_string(f.dim()) +
                              " != batch dim " + std::to_string(dim));
    }
  }
  return Status::OK();
}

size_t RawChunk::ByteSize() const {
  size_t total = 0;
  for (const std::string& r : records) total += r.size();
  return total;
}

}  // namespace cdpipe
