#include "src/ml/loss.h"

namespace cdpipe {

const char* LossKindName(LossKind kind) {
  switch (kind) {
    case LossKind::kSquared:
      return "squared";
    case LossKind::kHinge:
      return "hinge";
  }
  return "?";
}

LossGrad EvalLoss(LossKind kind, double pred, double label) {
  switch (kind) {
    case LossKind::kSquared: {
      const double diff = pred - label;
      return {0.5 * diff * diff, diff};
    }
    case LossKind::kHinge: {
      const double margin = label * pred;
      if (margin >= 1.0) return {0.0, 0.0};
      return {1.0 - margin, -label};
    }
  }
  return {};
}

}  // namespace cdpipe
