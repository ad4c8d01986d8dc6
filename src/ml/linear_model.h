#ifndef CDPIPE_ML_LINEAR_MODEL_H_
#define CDPIPE_ML_LINEAR_MODEL_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/io/serialization.h"
#include "src/linalg/dense_vector.h"
#include "src/linalg/sparse_vector.h"
#include "src/ml/batch_view.h"
#include "src/ml/loss.h"
#include "src/ml/optimizer.h"

namespace cdpipe {

class ExecutionEngine;

/// A generalized linear model trained with mini-batch SGD: linear SVM
/// (hinge loss) or least-squares linear regression, with L2
/// regularization.
///
/// The paper's deployment platform (§4.4) requires the model to expose an
/// `Update` method that computes a gradient over a mini-batch and applies it
/// through the optimizer; this is the unit of work of both online learning
/// and proactive training, so one class serves every deployment strategy.
///
/// The weight vector grows on demand: feature dimensions may appear over
/// the lifetime of a deployment (e.g. growing one-hot dictionaries).
class LinearModel {
 public:
  struct Options {
    LossKind loss = LossKind::kSquared;
    /// L2 regularization strength λ.  Applied lazily: the λ·w term is added
    /// only for the coordinates touched by the mini-batch (the standard
    /// sparse-SGD treatment; exact for dense data).
    double l2_reg = 0.0;
    bool fit_bias = true;
    /// Initialize the bias to the label mean of the first training batch
    /// (the standard base-score trick for regression: optimizers then only
    /// learn residuals instead of marching the intercept across the whole
    /// label range).
    bool init_bias_to_label_mean = false;
    /// Initial weight dimension (may grow).
    uint32_t initial_dim = 0;
  };

  explicit LinearModel(Options options);

  LinearModel(const LinearModel&) = default;
  LinearModel& operator=(const LinearModel&) = default;

  const Options& options() const { return options_; }

  /// Raw score w·x + b (margin for classifiers, prediction for regression).
  double Predict(const SparseVector& x) const;

  /// Batch scoring: `out` is overwritten with one Predict score per row of
  /// `features`, in row order (bit-identical to calling Predict per row).
  /// The micro-batch unit of the serving tier.
  void PredictBatch(const FeatureData& features, std::vector<double>* out) const;

  /// Classification label in {-1, +1} from the sign of the raw score.
  double PredictLabel(const SparseVector& x) const {
    return Predict(x) >= 0.0 ? 1.0 : -1.0;
  }

  /// One mini-batch SGD iteration: computes the averaged, L2-regularized
  /// gradient over `batch` and applies it through `optimizer`.  Empty
  /// batches are a no-op.  Delegates to the BatchView overload (one row
  /// reference per example, no data copies, same numerics).
  Status Update(const FeatureData& batch, Optimizer* optimizer);

  /// Zero-copy mini-batch SGD iteration over borrowed rows.  When `engine`
  /// is non-null and multi-threaded, the gradient accumulation is sharded
  /// across its workers; the result is bit-identical to the serial path
  /// (see ComputeGradient).
  Status Update(const BatchView& batch, Optimizer* optimizer,
                ExecutionEngine* engine = nullptr);

  /// Computes the averaged regularized gradient over `batch` without
  /// applying it.  Output entries are sorted by index.  Rows are partitioned
  /// into `clamp(rows/256, 1, 64)` shards — a count that depends only on the
  /// row count, never on `engine` or its thread count — and per-shard
  /// partial sums are merged in ascending shard order, so the floating-point
  /// result is deterministic and identical whether the shards run serially
  /// (engine == nullptr) or on any number of workers.  tests/spec holds the
  /// row-at-a-time reference this kernel must equal bit for bit.
  Status ComputeGradient(const BatchView& batch, std::vector<GradEntry>* grad,
                         double* bias_grad,
                         ExecutionEngine* engine = nullptr) const;

  /// Applies an externally computed gradient through `optimizer`.
  void ApplyGradient(const std::vector<GradEntry>& grad, double bias_grad,
                     Optimizer* optimizer);

  uint32_t dim() const { return static_cast<uint32_t>(weights_.dim()); }
  const DenseVector& weights() const { return weights_; }
  DenseVector* mutable_weights() { return &weights_; }
  double bias() const { return bias_; }
  void set_bias(double b) { bias_ = b; }

  /// Grows the weight vector (zero-filled) to at least `dim`.
  void EnsureDim(uint32_t dim);

  std::string ToString() const;

  /// Checkpointing: persists / restores weights, bias, and the options that
  /// affect training semantics.  Loading verifies the loss kind matches.
  Status SaveState(Serializer* out) const;
  Status LoadState(Deserializer* in);

 private:
  Options options_;
  DenseVector weights_;
  double bias_ = 0.0;
  bool bias_initialized_ = false;
};

}  // namespace cdpipe

#endif  // CDPIPE_ML_LINEAR_MODEL_H_
