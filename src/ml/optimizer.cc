#include "src/ml/optimizer.h"

#include <cmath>

#include "src/common/logging.h"

namespace cdpipe {

const char* OptimizerKindName(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return "sgd";
    case OptimizerKind::kMomentum:
      return "momentum";
    case OptimizerKind::kAdam:
      return "adam";
    case OptimizerKind::kRmsprop:
      return "rmsprop";
    case OptimizerKind::kAdadelta:
      return "adadelta";
  }
  return "?";
}

namespace {

constexpr double kMomentum = 0.9;   ///< momentum: velocity retention
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kEpsilon = 1e-6;   ///< adam / rmsprop / adadelta

/// Grows `v` (zero-filled) so that `v[index]` is valid.
void EnsureSize(std::vector<double>* v, size_t index) {
  if (v->size() <= index) v->resize(index + 1, 0.0);
}

class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(const OptimizerOptions& options) : options_(options) {}

  std::string name() const override { return "sgd"; }

  void Step(const std::vector<GradEntry>& grad, double bias_grad,
            DenseVector* weights, double* bias) override {
    ++step_;
    const double eta = options_.learning_rate;
    for (const GradEntry& g : grad) {
      (*weights)[g.index] -= eta * g.value;
    }
    *bias -= eta * bias_grad;
  }

  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<SgdOptimizer>(*this);
  }

  Status SaveState(Serializer* out) const override {
    out->WriteInt("sgd.step", step_);
    return Status::OK();
  }
  Status LoadState(Deserializer* in) override {
    CDPIPE_ASSIGN_OR_RETURN(step_, in->ReadInt("sgd.step"));
    return Status::OK();
  }

 private:
  OptimizerOptions options_;
};

class MomentumOptimizer final : public Optimizer {
 public:
  explicit MomentumOptimizer(const OptimizerOptions& options)
      : options_(options) {}

  std::string name() const override { return "momentum"; }

  void Step(const std::vector<GradEntry>& grad, double bias_grad,
            DenseVector* weights, double* bias) override {
    ++step_;
    const double gamma = kMomentum;
    const double eta = options_.learning_rate;
    for (const GradEntry& g : grad) {
      EnsureSize(&velocity_, g.index);
      EnsureSize(&last_step_, g.index);
      // Lazy catch-up: while this coordinate was untouched its velocity kept
      // decaying and pushing the weight; apply the accumulated geometric
      // series in closed form, then the fresh update.
      const double skipped =
          static_cast<double>(step_ - 1) - last_step_[g.index];
      if (skipped > 0.0 && velocity_[g.index] != 0.0) {
        const double geo =
            gamma * (1.0 - std::pow(gamma, skipped)) / (1.0 - gamma);
        (*weights)[g.index] -= geo * velocity_[g.index];
        velocity_[g.index] *= std::pow(gamma, skipped);
      }
      velocity_[g.index] = gamma * velocity_[g.index] + eta * g.value;
      (*weights)[g.index] -= velocity_[g.index];
      last_step_[g.index] = static_cast<double>(step_);
    }
    bias_velocity_ = gamma * bias_velocity_ + eta * bias_grad;
    *bias -= bias_velocity_;
  }

  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<MomentumOptimizer>(*this);
  }

  void Reset() override {
    Optimizer::Reset();
    velocity_.clear();
    last_step_.clear();
    bias_velocity_ = 0.0;
  }

  Status SaveState(Serializer* out) const override {
    out->WriteInt("momentum.step", step_);
    out->WriteDoubleVector("momentum.velocity", velocity_);
    out->WriteDoubleVector("momentum.last_step", last_step_);
    out->WriteDouble("momentum.bias_velocity", bias_velocity_);
    return Status::OK();
  }
  Status LoadState(Deserializer* in) override {
    CDPIPE_ASSIGN_OR_RETURN(step_, in->ReadInt("momentum.step"));
    CDPIPE_ASSIGN_OR_RETURN(velocity_, in->ReadDoubleVector("momentum.velocity"));
    CDPIPE_ASSIGN_OR_RETURN(last_step_,
                            in->ReadDoubleVector("momentum.last_step"));
    CDPIPE_ASSIGN_OR_RETURN(bias_velocity_,
                            in->ReadDouble("momentum.bias_velocity"));
    return Status::OK();
  }

 private:
  OptimizerOptions options_;
  std::vector<double> velocity_;
  std::vector<double> last_step_;
  double bias_velocity_ = 0.0;
};

class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(const OptimizerOptions& options)
      : options_(options) {}

  std::string name() const override { return "adam"; }

  void Step(const std::vector<GradEntry>& grad, double bias_grad,
            DenseVector* weights, double* bias) override {
    ++step_;
    const double b1 = kAdamBeta1;
    const double b2 = kAdamBeta2;
    // Bias correction uses the global step (LazyAdam treatment of sparse
    // gradients: untouched moments are left as-is).
    const double correction1 =
        1.0 - std::pow(b1, static_cast<double>(step_));
    const double correction2 =
        1.0 - std::pow(b2, static_cast<double>(step_));
    const double eta = options_.learning_rate;
    const double eps = kEpsilon;
    for (const GradEntry& g : grad) {
      EnsureSize(&m_, g.index);
      EnsureSize(&v_, g.index);
      m_[g.index] = b1 * m_[g.index] + (1.0 - b1) * g.value;
      v_[g.index] = b2 * v_[g.index] + (1.0 - b2) * g.value * g.value;
      const double mhat = m_[g.index] / correction1;
      const double vhat = v_[g.index] / correction2;
      (*weights)[g.index] -= eta * mhat / (std::sqrt(vhat) + eps);
    }
    bias_m_ = b1 * bias_m_ + (1.0 - b1) * bias_grad;
    bias_v_ = b2 * bias_v_ + (1.0 - b2) * bias_grad * bias_grad;
    *bias -= eta * (bias_m_ / correction1) /
             (std::sqrt(bias_v_ / correction2) + eps);
  }

  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<AdamOptimizer>(*this);
  }

  void Reset() override {
    Optimizer::Reset();
    m_.clear();
    v_.clear();
    bias_m_ = bias_v_ = 0.0;
  }

  Status SaveState(Serializer* out) const override {
    out->WriteInt("adam.step", step_);
    out->WriteDoubleVector("adam.m", m_);
    out->WriteDoubleVector("adam.v", v_);
    out->WriteDouble("adam.bias_m", bias_m_);
    out->WriteDouble("adam.bias_v", bias_v_);
    return Status::OK();
  }
  Status LoadState(Deserializer* in) override {
    CDPIPE_ASSIGN_OR_RETURN(step_, in->ReadInt("adam.step"));
    CDPIPE_ASSIGN_OR_RETURN(m_, in->ReadDoubleVector("adam.m"));
    CDPIPE_ASSIGN_OR_RETURN(v_, in->ReadDoubleVector("adam.v"));
    CDPIPE_ASSIGN_OR_RETURN(bias_m_, in->ReadDouble("adam.bias_m"));
    CDPIPE_ASSIGN_OR_RETURN(bias_v_, in->ReadDouble("adam.bias_v"));
    return Status::OK();
  }

 private:
  OptimizerOptions options_;
  std::vector<double> m_;
  std::vector<double> v_;
  double bias_m_ = 0.0;
  double bias_v_ = 0.0;
};

class RmspropOptimizer final : public Optimizer {
 public:
  explicit RmspropOptimizer(const OptimizerOptions& options)
      : options_(options) {}

  std::string name() const override { return "rmsprop"; }

  void Step(const std::vector<GradEntry>& grad, double bias_grad,
            DenseVector* weights, double* bias) override {
    ++step_;
    const double rho = options_.rho;
    const double eta = options_.learning_rate;
    const double eps = kEpsilon;
    for (const GradEntry& g : grad) {
      EnsureSize(&mean_square_, g.index);
      mean_square_[g.index] =
          rho * mean_square_[g.index] + (1.0 - rho) * g.value * g.value;
      (*weights)[g.index] -=
          eta * g.value / (std::sqrt(mean_square_[g.index]) + eps);
    }
    bias_mean_square_ =
        rho * bias_mean_square_ + (1.0 - rho) * bias_grad * bias_grad;
    *bias -= eta * bias_grad / (std::sqrt(bias_mean_square_) + eps);
  }

  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<RmspropOptimizer>(*this);
  }

  void Reset() override {
    Optimizer::Reset();
    mean_square_.clear();
    bias_mean_square_ = 0.0;
  }

  Status SaveState(Serializer* out) const override {
    out->WriteInt("rmsprop.step", step_);
    out->WriteDoubleVector("rmsprop.mean_square", mean_square_);
    out->WriteDouble("rmsprop.bias_mean_square", bias_mean_square_);
    return Status::OK();
  }
  Status LoadState(Deserializer* in) override {
    CDPIPE_ASSIGN_OR_RETURN(step_, in->ReadInt("rmsprop.step"));
    CDPIPE_ASSIGN_OR_RETURN(mean_square_,
                            in->ReadDoubleVector("rmsprop.mean_square"));
    CDPIPE_ASSIGN_OR_RETURN(bias_mean_square_,
                            in->ReadDouble("rmsprop.bias_mean_square"));
    return Status::OK();
  }

 private:
  OptimizerOptions options_;
  std::vector<double> mean_square_;
  double bias_mean_square_ = 0.0;
};

class AdadeltaOptimizer final : public Optimizer {
 public:
  explicit AdadeltaOptimizer(const OptimizerOptions& options)
      : options_(options) {}

  std::string name() const override { return "adadelta"; }

  void Step(const std::vector<GradEntry>& grad, double bias_grad,
            DenseVector* weights, double* bias) override {
    ++step_;
    const double rho = options_.rho;
    const double eps = kEpsilon;
    for (const GradEntry& g : grad) {
      EnsureSize(&accum_grad_, g.index);
      EnsureSize(&accum_update_, g.index);
      accum_grad_[g.index] =
          rho * accum_grad_[g.index] + (1.0 - rho) * g.value * g.value;
      const double update = -std::sqrt(accum_update_[g.index] + eps) /
                            std::sqrt(accum_grad_[g.index] + eps) * g.value;
      accum_update_[g.index] =
          rho * accum_update_[g.index] + (1.0 - rho) * update * update;
      (*weights)[g.index] += update;
    }
    bias_accum_grad_ =
        rho * bias_accum_grad_ + (1.0 - rho) * bias_grad * bias_grad;
    const double bias_update = -std::sqrt(bias_accum_update_ + eps) /
                               std::sqrt(bias_accum_grad_ + eps) * bias_grad;
    bias_accum_update_ =
        rho * bias_accum_update_ + (1.0 - rho) * bias_update * bias_update;
    *bias += bias_update;
  }

  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<AdadeltaOptimizer>(*this);
  }

  void Reset() override {
    Optimizer::Reset();
    accum_grad_.clear();
    accum_update_.clear();
    bias_accum_grad_ = bias_accum_update_ = 0.0;
  }

  Status SaveState(Serializer* out) const override {
    out->WriteInt("adadelta.step", step_);
    out->WriteDoubleVector("adadelta.accum_grad", accum_grad_);
    out->WriteDoubleVector("adadelta.accum_update", accum_update_);
    out->WriteDouble("adadelta.bias_accum_grad", bias_accum_grad_);
    out->WriteDouble("adadelta.bias_accum_update", bias_accum_update_);
    return Status::OK();
  }
  Status LoadState(Deserializer* in) override {
    CDPIPE_ASSIGN_OR_RETURN(step_, in->ReadInt("adadelta.step"));
    CDPIPE_ASSIGN_OR_RETURN(accum_grad_,
                            in->ReadDoubleVector("adadelta.accum_grad"));
    CDPIPE_ASSIGN_OR_RETURN(accum_update_,
                            in->ReadDoubleVector("adadelta.accum_update"));
    CDPIPE_ASSIGN_OR_RETURN(bias_accum_grad_,
                            in->ReadDouble("adadelta.bias_accum_grad"));
    CDPIPE_ASSIGN_OR_RETURN(bias_accum_update_,
                            in->ReadDouble("adadelta.bias_accum_update"));
    return Status::OK();
  }

 private:
  OptimizerOptions options_;
  std::vector<double> accum_grad_;
  std::vector<double> accum_update_;
  double bias_accum_grad_ = 0.0;
  double bias_accum_update_ = 0.0;
};

}  // namespace

std::unique_ptr<Optimizer> MakeOptimizer(const OptimizerOptions& options) {
  switch (options.kind) {
    case OptimizerKind::kSgd:
      return std::make_unique<SgdOptimizer>(options);
    case OptimizerKind::kMomentum:
      return std::make_unique<MomentumOptimizer>(options);
    case OptimizerKind::kAdam:
      return std::make_unique<AdamOptimizer>(options);
    case OptimizerKind::kRmsprop:
      return std::make_unique<RmspropOptimizer>(options);
    case OptimizerKind::kAdadelta:
      return std::make_unique<AdadeltaOptimizer>(options);
  }
  CDPIPE_CHECK(false) << "unknown optimizer kind";
  return nullptr;
}

}  // namespace cdpipe
