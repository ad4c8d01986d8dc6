#ifndef CDPIPE_ML_BATCH_VIEW_H_
#define CDPIPE_ML_BATCH_VIEW_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"

namespace cdpipe {

/// A zero-copy training batch: an ordered sequence of rows borrowed from
/// already-materialized feature chunks, plus a nominal dimension.
///
/// The proactive-training hot path (paper §3.3) samples k chunks per SGD
/// iteration; materializing them into one merged FeatureData used to copy
/// every sparse row (and reallocate rows whose nominal dim had to widen).
/// A BatchView replaces both copies with references: mixed nominal dims
/// collapse into a single `dim` (the maximum), which is sound because
/// nominal-dim widening never changes indices or values — consumers such
/// as LinearModel::Predict already guard out-of-range indices.
///
/// Ownership / lifetime: a BatchView owns nothing.  It borrows (a) the
/// SparseVector rows of the FeatureData chunks behind the references and
/// (b) the RowRef array itself.  Both must outlive the view, and the
/// chunks' `features` vectors must not reallocate while refs point into
/// them; in practice views live for one SGD step inside a single call
/// frame.  Rows are *not* re-validated per step — collect them through
/// CollectRows (which validates each chunk once).
class BatchView {
 public:
  /// One borrowed example: the row's SparseVector, one hop from the ref,
  /// and a copy of its label, so a shuffled epoch loads no chunk header or
  /// label array (see DESIGN.md, "Training-path performance").
  struct RowRef {
    const SparseVector* row = nullptr;
    double label = 0.0;
  };
  // A shuffled epoch index holds one ref per history row; wider refs cost
  // peak memory on every retrain.
  static_assert(sizeof(RowRef) == 16, "RowRef is a pointer and a label");

  BatchView() = default;

  /// View over `num_rows` references starting at `rows`.  `dim` must be
  /// >= every referenced chunk's nominal dim.
  BatchView(uint32_t dim, const RowRef* rows, size_t num_rows)
      : dim_(dim), rows_(rows), num_rows_(num_rows) {}

  BatchView(uint32_t dim, const std::vector<RowRef>& rows)
      : BatchView(dim, rows.data(), rows.size()) {}

  /// Flattens `chunks` into row references in chunk-then-row order and
  /// reports the widest nominal dim.  Validates each chunk exactly once
  /// (null pointer, internal consistency) so per-step consumers don't have
  /// to.  The returned vector is the backing storage for subsequent
  /// BatchView instances; keep it alive as long as any view over it.
  static Result<std::vector<RowRef>> CollectRows(
      const std::vector<const FeatureData*>& chunks, uint32_t* max_dim);

  uint32_t dim() const { return dim_; }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  const SparseVector& feature(size_t i) const { return *rows_[i].row; }
  double label(size_t i) const { return rows_[i].label; }

 private:
  uint32_t dim_ = 0;
  const RowRef* rows_ = nullptr;
  size_t num_rows_ = 0;
};

}  // namespace cdpipe

#endif  // CDPIPE_ML_BATCH_VIEW_H_
