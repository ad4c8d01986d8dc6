#ifndef CDPIPE_ML_OPTIMIZER_H_
#define CDPIPE_ML_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
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

/// Hyperparameters shared by the factory below; unused fields are ignored
/// by optimizers that do not need them.  The rest are constants: momentum
/// keeps 0.9 of its velocity, Adam uses beta1 = 0.9 and beta2 = 0.999, and
/// Adam, RMSProp and AdaDelta add epsilon = 1e-6 to their denominators.
struct OptimizerOptions {
  OptimizerKind kind = OptimizerKind::kAdam;
  double learning_rate = 0.01;   ///< sgd / momentum / adam / rmsprop
  double rho = 0.95;             ///< rmsprop / adadelta: decay of E[g^2]
};

/// Per-coordinate adaptive SGD update rule.
///
/// The optimizer keeps its kind's state for every weight coordinate, grown
/// on demand (feature dimensions can appear over time), and for the model
/// bias.  Gradients are sparse; only the touched coordinates are updated
/// (the "lazy" sparse treatment standard in large-scale linear learners).
/// Each kind's update rule is written once and applied to every touched
/// coordinate and then to the bias.  Crucially for the paper's proactive
/// training (§3.3), *all* optimizer state needed by the next iteration
/// lives in this object, so a proactive step at an arbitrary later time is
/// exactly one more mini-batch SGD iteration — and warm starting a
/// retraining is a simple Clone().
class Optimizer {
 public:
  std::string name() const { return OptimizerKindName(options_.kind); }

  /// Applies one update step.  `grad` holds the regularized mini-batch
  /// gradient for the touched weight coordinates (indices < weights->dim());
  /// `bias_grad` is the bias gradient (always applied).
  void Step(const std::vector<GradEntry>& grad, double bias_grad,
            DenseVector* weights, double* bias);

  /// Number of steps applied so far.
  int64_t step_count() const { return step_; }

  /// Deep copy including all adaptation state (for warm starting).
  std::unique_ptr<Optimizer> Clone() const {
    return std::unique_ptr<Optimizer>(new Optimizer(*this));
  }

  /// Drops all adaptation state (cold start).
  void Reset();

  /// Checkpointing: persists / restores all adaptation state.  The loader
  /// must construct the same optimizer kind and hyperparameters first.
  Status SaveState(Serializer* out) const;
  Status LoadState(Deserializer* in);

 private:
  friend std::unique_ptr<Optimizer> MakeOptimizer(
      const OptimizerOptions& options);

  explicit Optimizer(const OptimizerOptions& options) : options_(options) {}
  Optimizer(const Optimizer&) = default;

  /// Applies `rule` to every coordinate of `grad`, each after `catch_up`
  /// has brought its state and weight up to date, then to the bias, which
  /// is touched every step.  The first `kSlots` state vectors grow to cover
  /// the touched coordinates.
  template <int kSlots, typename Rule, typename CatchUp>
  void Apply(const std::vector<GradEntry>& grad, double bias_grad,
             DenseVector* weights, double* bias, const Rule& rule,
             const CatchUp& catch_up);

  OptimizerOptions options_;
  int64_t step_ = 0;
  /// Up to two state values per coordinate and two for the bias; the key
  /// table in optimizer.cc names what each kind keeps in them.
  std::vector<double> state_[2];
  double bias_state_[2] = {0.0, 0.0};
};

/// Creates an optimizer from options.
std::unique_ptr<Optimizer> MakeOptimizer(const OptimizerOptions& options);

}  // namespace cdpipe

#endif  // CDPIPE_ML_OPTIMIZER_H_
