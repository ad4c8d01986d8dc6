#ifndef CDPIPE_TESTS_SPEC_GRADIENT_SPEC_H_
#define CDPIPE_TESTS_SPEC_GRADIENT_SPEC_H_

// Row-at-a-time reference ("spec") of LinearModel's loss and mini-batch
// gradient, for tests only.  Rows are plain FeatureData rows visited in
// chunk-then-row order; sums live in ordered maps, so there is no scratch
// accumulator, touched list, extraction heuristic or thread pool.  The
// sharded kernel (LinearModel::ComputeGradient) must equal it bit for bit.
//
// The only structure kept from the kernel is its documented summation
// order, because bit-identity is the contract under test: rows fall into
// clamp(rows/256, 1, 64) equal shards (the last one shorter), each shard
// sums its rows in order, and the shard partials are added in ascending
// shard order.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/ml/linear_model.h"
#include "src/ml/loss.h"
#include "src/ml/optimizer.h"

namespace cdpipe {
namespace spec {

/// Mean unregularized loss of `model` over the rows of `data`.
inline Result<double> MeanLoss(const LinearModel& model,
                               const FeatureData& data) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot compute loss of an empty batch");
  }
  double total = 0.0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    total += EvalLoss(model.options().loss, model.Predict(data.features[r]),
                      data.labels[r])
                 .loss;
  }
  return total / static_cast<double>(data.num_rows());
}

struct Gradient {
  std::vector<GradEntry> entries;  ///< ascending index, no exact zeros
  double bias = 0.0;
};

/// The averaged, L2-regularized gradient of `model`'s loss over the rows of
/// `chunks`.  Every coordinate present in some row is touched: it gets the
/// L2 term even when its data gradient is zero, and the entry is dropped
/// only if the final value is exactly zero.
inline Gradient ReferenceGradient(
    const LinearModel& model, const std::vector<const FeatureData*>& chunks) {
  struct Row {
    const SparseVector* x;
    double label;
  };
  std::vector<Row> rows;
  for (const FeatureData* chunk : chunks) {
    for (size_t r = 0; r < chunk->num_rows(); ++r) {
      rows.push_back(Row{&chunk->features[r], chunk->labels[r]});
    }
  }
  Gradient out;
  if (rows.empty()) return out;

  const size_t num_shards =
      std::clamp(rows.size() / 256, size_t{1}, size_t{64});
  const size_t shard_rows = (rows.size() + num_shards - 1) / num_shards;
  std::map<uint32_t, double> sums;
  double bias_sum = 0.0;
  for (size_t s = 0; s < num_shards; ++s) {
    std::map<uint32_t, double> shard_sums;
    double shard_bias = 0.0;
    const size_t end = std::min((s + 1) * shard_rows, rows.size());
    for (size_t r = s * shard_rows; r < end; ++r) {
      const LossGrad lg = EvalLoss(model.options().loss,
                                   model.Predict(*rows[r].x), rows[r].label);
      for (size_t k = 0; k < rows[r].x->indices().size(); ++k) {
        shard_sums[rows[r].x->indices()[k]] +=
            lg.dloss_dpred * rows[r].x->values()[k];
      }
      shard_bias += lg.dloss_dpred;
    }
    for (const auto& [index, sum] : shard_sums) sums[index] += sum;
    bias_sum += shard_bias;
  }

  const double inv_n = 1.0 / static_cast<double>(rows.size());
  const double l2 = model.options().l2_reg;
  for (const auto& [index, sum] : sums) {
    double value = sum * inv_n;
    if (l2 > 0.0) value += l2 * model.weights()[index];
    if (value != 0.0) out.entries.push_back(GradEntry{index, value});
  }
  out.bias = model.options().fit_bias ? bias_sum * inv_n : 0.0;
  return out;
}

}  // namespace spec
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_SPEC_GRADIENT_SPEC_H_
