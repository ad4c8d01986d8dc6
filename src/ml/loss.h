#ifndef CDPIPE_ML_LOSS_H_
#define CDPIPE_ML_LOSS_H_

#include <string>

namespace cdpipe {

/// Loss functions for SGD-trained linear models.  Hinge loss expects
/// labels in {-1, +1}; squared loss is for regression.
enum class LossKind {
  kSquared,  ///< 0.5 (p - y)^2            — linear regression
  kHinge,    ///< max(0, 1 - y p)          — linear SVM
};

const char* LossKindName(LossKind kind);

/// Loss value and its derivative with respect to the raw prediction p.
struct LossGrad {
  double loss = 0.0;
  double dloss_dpred = 0.0;
};

/// Evaluates the loss and its gradient for one example.
LossGrad EvalLoss(LossKind kind, double pred, double label);

}  // namespace cdpipe

#endif  // CDPIPE_ML_LOSS_H_
