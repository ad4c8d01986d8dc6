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

/// Checkpoint keys of one kind in write order: the step count, the two
/// per-coordinate state vectors, the two bias state values; nullptr marks
/// a slot the kind does not use.
struct StateKeys {
  const char* step;
  const char* state[2];
  const char* bias_state[2];
};

const StateKeys& KeysOf(OptimizerKind kind) {
  static constexpr StateKeys kKeys[] = {
      {"sgd.step", {nullptr, nullptr}, {nullptr, nullptr}},
      {"momentum.step",
       {"momentum.velocity", "momentum.last_step"},
       {"momentum.bias_velocity", nullptr}},
      {"adam.step", {"adam.m", "adam.v"}, {"adam.bias_m", "adam.bias_v"}},
      {"rmsprop.step",
       {"rmsprop.mean_square", nullptr},
       {"rmsprop.bias_mean_square", nullptr}},
      {"adadelta.step",
       {"adadelta.accum_grad", "adadelta.accum_update"},
       {"adadelta.bias_accum_grad", "adadelta.bias_accum_update"}},
  };
  static_assert(static_cast<int>(OptimizerKind::kAdadelta) == 4);
  return kKeys[static_cast<int>(kind)];
}

/// Grows `v` (zero-filled) so that `v[index]` is valid.
void EnsureSize(std::vector<double>* v, size_t index) {
  if (v->size() <= index) v->resize(index + 1, 0.0);
}

/// The catch-up of every kind but momentum.
constexpr auto kNoCatchUp = [](double*, double*, double*) {};

}  // namespace

template <int kSlots, typename Rule, typename CatchUp>
void Optimizer::Apply(const std::vector<GradEntry>& grad, double bias_grad,
                      DenseVector* weights, double* bias, const Rule& rule,
                      const CatchUp& catch_up) {
  for (const GradEntry& g : grad) {
    double* slot[2] = {nullptr, nullptr};
    if constexpr (kSlots >= 1) {
      EnsureSize(&state_[0], g.index);
      slot[0] = &state_[0][g.index];
    }
    if constexpr (kSlots >= 2) {
      EnsureSize(&state_[1], g.index);
      slot[1] = &state_[1][g.index];
    }
    double* w = &(*weights)[g.index];
    catch_up(slot[0], slot[1], w);
    rule(g.value, slot[0], slot[1], w);
  }
  rule(bias_grad, &bias_state_[0], &bias_state_[1], bias);
}

// Each rule takes one gradient value, the two state values it belongs to
// and the weight (or the bias) it moves.
void Optimizer::Step(const std::vector<GradEntry>& grad, double bias_grad,
                     DenseVector* weights, double* bias) {
  ++step_;
  const double eta = options_.learning_rate;
  const double rho = options_.rho;
  switch (options_.kind) {
    case OptimizerKind::kSgd:
      Apply<0>(grad, bias_grad, weights, bias,
               [eta](double g, double*, double*, double* w) { *w -= eta * g; },
               kNoCatchUp);
      return;
    case OptimizerKind::kMomentum: {
      // Lazy catch-up: while a coordinate was untouched its velocity kept
      // decaying and pushing the weight; apply the accumulated geometric
      // series in closed form before the fresh update.
      const double previous = static_cast<double>(step_ - 1);
      const double now = static_cast<double>(step_);
      Apply<2>(grad, bias_grad, weights, bias,
               [eta](double g, double* velocity, double*, double* w) {
                 *velocity = kMomentum * *velocity + eta * g;
                 *w -= *velocity;
               },
               [previous, now](double* velocity, double* last_step,
                               double* w) {
                 const double skipped = previous - *last_step;
                 if (skipped > 0.0 && *velocity != 0.0) {
                   const double geo = kMomentum *
                                      (1.0 - std::pow(kMomentum, skipped)) /
                                      (1.0 - kMomentum);
                   *w -= geo * *velocity;
                   *velocity *= std::pow(kMomentum, skipped);
                 }
                 *last_step = now;
               });
      return;
    }
    case OptimizerKind::kAdam: {
      // Bias correction uses the global step (LazyAdam treatment of sparse
      // gradients: untouched moments are left as-is).
      const double correction1 =
          1.0 - std::pow(kAdamBeta1, static_cast<double>(step_));
      const double correction2 =
          1.0 - std::pow(kAdamBeta2, static_cast<double>(step_));
      Apply<2>(grad, bias_grad, weights, bias,
               [=](double g, double* m, double* v, double* w) {
                 *m = kAdamBeta1 * *m + (1.0 - kAdamBeta1) * g;
                 *v = kAdamBeta2 * *v + (1.0 - kAdamBeta2) * g * g;
                 *w -= eta * (*m / correction1) /
                       (std::sqrt(*v / correction2) + kEpsilon);
               },
               kNoCatchUp);
      return;
    }
    case OptimizerKind::kRmsprop:
      Apply<1>(grad, bias_grad, weights, bias,
               [=](double g, double* mean_square, double*, double* w) {
                 *mean_square = rho * *mean_square + (1.0 - rho) * g * g;
                 *w -= eta * g / (std::sqrt(*mean_square) + kEpsilon);
               },
               kNoCatchUp);
      return;
    case OptimizerKind::kAdadelta:
      Apply<2>(grad, bias_grad, weights, bias,
               [rho](double g, double* accum_grad, double* accum_update,
                     double* w) {
                 *accum_grad = rho * *accum_grad + (1.0 - rho) * g * g;
                 const double update = -std::sqrt(*accum_update + kEpsilon) /
                                       std::sqrt(*accum_grad + kEpsilon) * g;
                 *accum_update =
                     rho * *accum_update + (1.0 - rho) * update * update;
                 *w += update;
               },
               kNoCatchUp);
      return;
  }
}

void Optimizer::Reset() {
  step_ = 0;
  for (int i = 0; i < 2; ++i) {
    state_[i].clear();
    bias_state_[i] = 0.0;
  }
}

Status Optimizer::SaveState(Serializer* out) const {
  const StateKeys& keys = KeysOf(options_.kind);
  out->WriteInt(keys.step, step_);
  for (int i = 0; i < 2; ++i) {
    if (keys.state[i] != nullptr) {
      out->WriteDoubleVector(keys.state[i], state_[i]);
    }
  }
  for (int i = 0; i < 2; ++i) {
    if (keys.bias_state[i] != nullptr) {
      out->WriteDouble(keys.bias_state[i], bias_state_[i]);
    }
  }
  return Status::OK();
}

Status Optimizer::LoadState(Deserializer* in) {
  const StateKeys& keys = KeysOf(options_.kind);
  CDPIPE_ASSIGN_OR_RETURN(step_, in->ReadInt(keys.step));
  for (int i = 0; i < 2; ++i) {
    if (keys.state[i] != nullptr) {
      CDPIPE_ASSIGN_OR_RETURN(state_[i], in->ReadDoubleVector(keys.state[i]));
    }
  }
  for (int i = 0; i < 2; ++i) {
    if (keys.bias_state[i] != nullptr) {
      CDPIPE_ASSIGN_OR_RETURN(bias_state_[i],
                              in->ReadDouble(keys.bias_state[i]));
    }
  }
  return Status::OK();
}

std::unique_ptr<Optimizer> MakeOptimizer(const OptimizerOptions& options) {
  CDPIPE_CHECK(static_cast<int>(options.kind) >= 0 &&
               options.kind <= OptimizerKind::kAdadelta)
      << "unknown optimizer kind";
  return std::unique_ptr<Optimizer>(new Optimizer(options));
}

}  // namespace cdpipe
