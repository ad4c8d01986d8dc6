#include "src/drift/drift_detector.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace cdpipe {
namespace {

/// Page-Hinkley warns once its statistic crosses this fraction of lambda.
constexpr double kWarningFraction = 0.5;
/// DDM's warning and drift levels, in standard deviations above the minimum.
constexpr double kDdmWarningSigmas = 2.0;
constexpr double kDdmDriftSigmas = 3.0;

}  // namespace

PageHinkleyDetector::PageHinkleyDetector(Options options)
    : options_(options) {
  CDPIPE_CHECK_GT(options_.lambda, 0.0);
  CDPIPE_CHECK_GE(options_.delta, 0.0);
}

DriftState PageHinkleyDetector::Observe(double error) {
  ++count_;
  // Running mean of the error signal.
  mean_ += (error - mean_) / static_cast<double>(count_);
  cumulative_ += error - mean_ - options_.delta;
  minimum_ = std::min(minimum_, cumulative_);

  if (count_ <= options_.burn_in) {
    state_ = DriftState::kStable;
    return state_;
  }
  const double statistic = cumulative_ - minimum_;
  if (statistic > options_.lambda) {
    state_ = DriftState::kDrift;
    ++drifts_;
    // Auto-reset the baseline so one change yields one alarm instead of an
    // alarm per observation (standard Page-Hinkley practice).
    const int64_t drifts = drifts_;
    Reset();
    drifts_ = drifts;
    state_ = DriftState::kDrift;
  } else if (statistic > kWarningFraction * options_.lambda) {
    state_ = DriftState::kWarning;
  } else {
    state_ = DriftState::kStable;
  }
  return state_;
}

void PageHinkleyDetector::Reset() {
  state_ = DriftState::kStable;
  count_ = 0;
  mean_ = 0.0;
  cumulative_ = 0.0;
  minimum_ = 0.0;
  // drifts_ survives reset: it is a lifetime counter.
}

DdmDetector::DdmDetector(Options options) : options_(options) {}

DriftState DdmDetector::Observe(double error) {
  ++count_;
  // Accept fractional error signals (e.g. chunk-mean error rates): the
  // Bernoulli proportion generalizes to the mean of [0,1] signals.
  errors_ += std::clamp(error, 0.0, 1.0);

  if (count_ < options_.min_observations) {
    state_ = DriftState::kStable;
    return state_;
  }
  const double p = errors_ / static_cast<double>(count_);
  const double s = std::sqrt(p * (1.0 - p) / static_cast<double>(count_));
  if (p + s < min_p_plus_s_) {
    min_p_plus_s_ = p + s;
    min_p_ = p;
    min_s_ = s;
  }
  if (p + s > min_p_ + kDdmDriftSigmas * min_s_) {
    state_ = DriftState::kDrift;
    ++drifts_;
    // Auto-reset: restart the Bernoulli estimate from the new concept.
    const int64_t drifts = drifts_;
    Reset();
    drifts_ = drifts;
    state_ = DriftState::kDrift;
  } else if (p + s > min_p_ + kDdmWarningSigmas * min_s_) {
    state_ = DriftState::kWarning;
  } else {
    state_ = DriftState::kStable;
  }
  return state_;
}

double DdmDetector::ErrorRate() const {
  return count_ > 0 ? errors_ / static_cast<double>(count_) : 0.0;
}

void DdmDetector::Reset() {
  state_ = DriftState::kStable;
  count_ = 0;
  errors_ = 0;
  min_p_plus_s_ = 1e300;
  min_p_ = 0.0;
  min_s_ = 0.0;
}

}  // namespace cdpipe
