#include "src/ml/prequential.h"

#include <utility>

#include "src/common/logging.h"

namespace cdpipe {

PrequentialEvaluator::PrequentialEvaluator(std::unique_ptr<Metric> metric,
                                           size_t window)
    : metric_(std::move(metric)), window_(window) {
  CDPIPE_CHECK(metric_ != nullptr);
  if (window_ > 0) {
    window_current_ = metric_->Clone();
    window_current_->Reset();
    window_previous_ = metric_->Clone();
    window_previous_->Reset();
  }
}

void PrequentialEvaluator::Observe(double prediction, double label) {
  metric_->Add(prediction, label);
  if (window_ == 0) return;
  window_current_->Add(prediction, label);
  ++window_fill_;
  const int64_t half = static_cast<int64_t>(window_ / 2) + 1;
  if (window_fill_ >= half) {
    // Rotate: the previous half-window becomes the tail, current restarts.
    std::swap(window_previous_, window_current_);
    window_current_->Reset();
    window_fill_ = 0;
  }
}

double PrequentialEvaluator::WindowedValue() const {
  if (window_ == 0) return metric_->Value();
  // The metric over both half-windows' pooled error mass and count.
  const int64_t count = window_previous_->Count() + window_current_->Count();
  if (count == 0) return metric_->Value();
  return metric_->ValueOf(
      window_previous_->AggregateMass() + window_current_->AggregateMass(),
      count);
}

}  // namespace cdpipe
