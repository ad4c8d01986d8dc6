#include "src/ml/batch_view.h"

#include <algorithm>

namespace cdpipe {

Result<std::vector<BatchView::RowRef>> BatchView::CollectRows(
    const std::vector<const FeatureData*>& chunks, uint32_t* max_dim) {
  uint32_t dim = 0;
  size_t total_rows = 0;
  for (const FeatureData* chunk : chunks) {
    if (chunk == nullptr) {
      return Status::InvalidArgument("null feature chunk in batch view");
    }
    CDPIPE_RETURN_NOT_OK(chunk->Validate());
    dim = std::max(dim, chunk->dim);
    total_rows += chunk->num_rows();
  }
  std::vector<RowRef> rows;
  rows.reserve(total_rows);
  for (const FeatureData* chunk : chunks) {
    for (size_t r = 0; r < chunk->num_rows(); ++r) {
      rows.push_back(RowRef{&chunk->features[r], chunk->labels[r]});
    }
  }
  if (max_dim != nullptr) *max_dim = dim;
  return rows;
}

}  // namespace cdpipe
