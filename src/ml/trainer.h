#ifndef CDPIPE_ML_TRAINER_H_
#define CDPIPE_ML_TRAINER_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/engine/execution_engine.h"
#include "src/ml/batch_view.h"
#include "src/ml/linear_model.h"
#include "src/ml/optimizer.h"

namespace cdpipe {

/// Offline mini-batch SGD training over a fixed dataset, used for the
/// initial model training and by the periodical deployment's full
/// retraining.  Iterates epochs of shuffled mini-batches until the relative
/// change of the weight vector falls below `tolerance` or `max_epochs` is
/// reached.
///
/// Mini-batches are zero-copy BatchViews into the input chunks: the shuffled
/// epoch index holds one {row pointer, label} reference per example and each
/// batch is a subrange of it, so no sparse row is ever copied or dim-widened
/// on the training path.
class BatchTrainer {
 public:
  struct Options {
    int max_epochs = 20;
    /// Examples per mini-batch; 0 = full batch (batch gradient descent,
    /// i.e. the paper's sampling ratio of 1.0 for initial training).
    size_t batch_size = 0;
    /// Stop when ||w_t - w_{t-1}|| / max(1, ||w_{t-1}||) < tolerance after
    /// an epoch.
    double tolerance = 1e-4;
  };

  struct Stats {
    int epochs_run = 0;
    int64_t sgd_iterations = 0;
    int64_t examples_visited = 0;
    bool converged = false;
  };

  explicit BatchTrainer(Options options) : options_(options) {}

  /// Trains `model` in place over the concatenation of `chunks` using
  /// `optimizer`.  Deterministic given `rng` — the result is independent of
  /// `engine` (sharded gradients merge in fixed order), which only speeds
  /// up gradient accumulation when multi-threaded.
  Result<Stats> Train(const std::vector<const FeatureData*>& chunks,
                      LinearModel* model, Optimizer* optimizer, Rng* rng,
                      ExecutionEngine* engine = nullptr) const;

 private:
  Options options_;
};

}  // namespace cdpipe

#endif  // CDPIPE_ML_TRAINER_H_
