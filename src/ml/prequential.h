#ifndef CDPIPE_ML_PREQUENTIAL_H_
#define CDPIPE_ML_PREQUENTIAL_H_

#include <cstddef>
#include <memory>

#include "src/ml/metrics.h"

namespace cdpipe {

/// Prequential ("test-then-train") evaluation, Dawid 1984: every incoming
/// example is first used to evaluate the deployed model, then used for
/// training.  This is the paper's quality measure for all deployment
/// experiments (§5.1).
///
/// Tracks the cumulative metric and, optionally, a sliding-window metric
/// over the last `window` observations (useful to see recovery after drift,
/// which the cumulative curve smooths out).
class PrequentialEvaluator {
 public:
  /// `window` = 0 disables the sliding-window metric.
  explicit PrequentialEvaluator(std::unique_ptr<Metric> metric,
                                size_t window = 0);

  /// Records one test-then-train observation (the caller is responsible for
  /// doing the training part afterwards).
  void Observe(double prediction, double label);

  int64_t Count() const { return metric_->Count(); }
  double CumulativeValue() const { return metric_->Value(); }
  /// Sum of the per-example error signal so far (see Metric::AggregateMass).
  double AggregateMass() const { return metric_->AggregateMass(); }
  /// Metric over the last `window` observations (cumulative value when the
  /// window is disabled or not yet full).
  double WindowedValue() const;

 private:
  std::unique_ptr<Metric> metric_;
  size_t window_;
  /// Two half-open window metrics rotated every `window_`/2 observations —
  /// O(1) approximation of a sliding window without storing observations.
  std::unique_ptr<Metric> window_current_;
  std::unique_ptr<Metric> window_previous_;
  int64_t window_fill_ = 0;
};

}  // namespace cdpipe

#endif  // CDPIPE_ML_PREQUENTIAL_H_
