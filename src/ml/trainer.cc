#include "src/ml/trainer.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace cdpipe {

Result<BatchTrainer::Stats> BatchTrainer::Train(
    const std::vector<const FeatureData*>& chunks, LinearModel* model,
    Optimizer* optimizer, Rng* rng, ExecutionEngine* engine) const {
  CDPIPE_CHECK(model != nullptr);
  CDPIPE_CHECK(optimizer != nullptr);
  CDPIPE_CHECK(rng != nullptr);

  // Build a flat index of row references once (validating each chunk once);
  // epochs shuffle it and mini-batches are zero-copy subranges of it.
  uint32_t max_dim = 0;
  Result<std::vector<BatchView::RowRef>> collected =
      BatchView::CollectRows(chunks, &max_dim);
  if (!collected.ok()) {
    return Status::InvalidArgument("BatchTrainer: " +
                                   collected.status().message());
  }
  std::vector<BatchView::RowRef> index = std::move(collected).value();
  Stats stats;
  if (index.empty()) return stats;
  model->EnsureDim(max_dim);

  const size_t batch_size =
      options_.batch_size == 0 ? index.size()
                               : std::min(options_.batch_size, index.size());

  DenseVector previous = model->weights();
  double previous_bias = model->bias();
  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    rng->Shuffle(&index);
    for (size_t start = 0; start < index.size(); start += batch_size) {
      const size_t end = std::min(start + batch_size, index.size());
      const BatchView batch(max_dim, index.data() + start, end - start);
      CDPIPE_RETURN_NOT_OK(model->Update(batch, optimizer, engine));
      ++stats.sgd_iterations;
      stats.examples_visited += static_cast<int64_t>(end - start);
    }
    ++stats.epochs_run;

    // Convergence test on the relative parameter change.
    DenseVector delta = model->weights();
    delta.Axpy(-1.0, previous);
    const double bias_delta = model->bias() - previous_bias;
    const double change =
        std::sqrt(delta.L2NormSquared() + bias_delta * bias_delta);
    const double scale = std::max(1.0, previous.L2Norm());
    previous = model->weights();
    previous_bias = model->bias();
    if (change / scale < options_.tolerance) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

}  // namespace cdpipe
