#ifndef CDPIPE_ML_OPTIMIZER_H_
#define CDPIPE_ML_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/io/serialization.h"
#include "src/linalg/dense_vector.h"

namespace cdpipe {

/// One coordinate of a (sparse) gradient.
struct GradEntry {
  uint32_t index = 0;
  double value = 0.0;
};

/// Learning-rate adaptation strategies from §2.1 of the paper.
enum class OptimizerKind {
  kSgd,       ///< constant global rate
  kMomentum,  ///< Qian 1999
  kAdam,      ///< Kingma & Ba 2014
  kRmsprop,   ///< Tieleman & Hinton 2012
  kAdadelta,  ///< Zeiler 2012
};

const char* OptimizerKindName(OptimizerKind kind);

/// Per-coordinate adaptive SGD update rule.
///
/// The optimizer owns one state slot per weight coordinate plus one for the
/// model bias, grown on demand (feature dimensions can appear over time).
/// Gradients are sparse; implementations update only the touched
/// coordinates (the "lazy" sparse treatment standard in large-scale linear
/// learners).  Crucially for the paper's proactive training (§3.3), *all*
/// optimizer state needed by the next iteration lives in this object, so a
/// proactive step at an arbitrary later time is exactly one more mini-batch
/// SGD iteration — and warm starting a retraining is a simple Clone().
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  virtual std::string name() const = 0;

  /// Applies one update step.  `grad` holds the regularized mini-batch
  /// gradient for the touched weight coordinates (indices < weights->dim());
  /// `bias_grad` is the bias gradient (always applied).
  virtual void Step(const std::vector<GradEntry>& grad, double bias_grad,
                    DenseVector* weights, double* bias) = 0;

  /// Number of steps applied so far.
  int64_t step_count() const { return step_; }

  /// Deep copy including all adaptation state (for warm starting).
  virtual std::unique_ptr<Optimizer> Clone() const = 0;

  /// Drops all adaptation state (cold start).
  virtual void Reset() { step_ = 0; }

  /// Checkpointing: persists / restores all adaptation state.  The loader
  /// must construct the same optimizer kind and hyperparameters first.
  virtual Status SaveState(Serializer* out) const = 0;
  virtual Status LoadState(Deserializer* in) = 0;

 protected:
  int64_t step_ = 0;
};

/// Hyperparameters shared by the factory below; unused fields are ignored
/// by optimizers that do not need them.  The rest are constants: momentum
/// keeps 0.9 of its velocity, Adam uses beta1 = 0.9 and beta2 = 0.999, and
/// Adam, RMSProp and AdaDelta add epsilon = 1e-6 to their denominators.
struct OptimizerOptions {
  OptimizerKind kind = OptimizerKind::kAdam;
  double learning_rate = 0.01;   ///< sgd / momentum / adam / rmsprop
  double rho = 0.95;             ///< rmsprop / adadelta: decay of E[g^2]
};

/// Creates an optimizer from options.
std::unique_ptr<Optimizer> MakeOptimizer(const OptimizerOptions& options);

}  // namespace cdpipe

#endif  // CDPIPE_ML_OPTIMIZER_H_
