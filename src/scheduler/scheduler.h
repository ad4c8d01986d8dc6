#ifndef CDPIPE_SCHEDULER_SCHEDULER_H_
#define CDPIPE_SCHEDULER_SCHEDULER_H_

#include <memory>

#include "src/common/status.h"

namespace cdpipe {

/// Exponentially-weighted moving average, seeded with the first observation:
/// the rate/latency signals the dynamic scheduler consumes and the smoothed
/// error of the periodical deployment's Velox-style retrain trigger.
class EwmaTracker {
 public:
  explicit EwmaTracker(double alpha = 0.2) : alpha_(alpha) {}

  void Observe(double value) {
    if (!initialized_) {
      value_ = value;
      initialized_ = true;
    } else {
      value_ = alpha_ * value + (1.0 - alpha_) * value_;
    }
    ++count_;
  }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }
  int64_t count() const { return count_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
  int64_t count_ = 0;
};

/// Decides when the pipeline manager should run the next proactive training
/// (paper §4.1).  The scheduler is pure decision logic over a caller-supplied
/// clock: the deployment driver reports time, query rate, latency, and
/// training durations; the scheduler answers "is a proactive step due now?".
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// True when a proactive training should run at time `now_seconds`.
  virtual bool ShouldTrain(double now_seconds) = 0;

  /// Reports that a proactive training started at `start_seconds` and took
  /// `duration_seconds` of training time.
  virtual void OnTrainingCompleted(double start_seconds,
                                   double duration_seconds) = 0;

  /// Reports observed prediction load (queries per second and seconds per
  /// query).  The static scheduler ignores this.
  virtual void OnPredictionLoad(double queries_per_second,
                                double latency_seconds_per_item) {
    (void)queries_per_second;
    (void)latency_seconds_per_item;
  }
};

/// Fixed-interval scheduling: train every `interval_seconds`, starting one
/// interval after construction.
class StaticScheduler final : public Scheduler {
 public:
  explicit StaticScheduler(double interval_seconds);

  bool ShouldTrain(double now_seconds) override;
  void OnTrainingCompleted(double start_seconds,
                           double duration_seconds) override;

 private:
  double interval_seconds_;
  double next_due_ = 0.0;
  bool initialized_ = false;
};

/// Dynamic scheduling, formula (6) of the paper:
///
///   T' = S * T * pr * pl
///
/// where T is the duration of the last proactive training, pr the average
/// prediction-query rate, pl the average per-query latency, and S >= 1 the
/// user slack.  The delay until the next training covers the time needed to
/// answer the queries that queued up during training (T * pr * pl), scaled
/// by the slack; S in [1, 2) favors training freshness, S >= 2 favors query
/// serving.
class DynamicScheduler final : public Scheduler {
 public:
  struct Options {
    double slack = 1.5;
    /// Lower bound on the delay so a zero-latency measurement cannot spin
    /// the trainer in a loop.
    double min_interval_seconds = 1e-3;
    /// Used until the first training/load measurements exist.
    double initial_interval_seconds = 1.0;
  };

  explicit DynamicScheduler(Options options);

  bool ShouldTrain(double now_seconds) override;
  void OnTrainingCompleted(double start_seconds,
                           double duration_seconds) override;
  void OnPredictionLoad(double queries_per_second,
                        double latency_seconds_per_item) override;

  /// The delay the scheduler would choose for a training that took
  /// `training_seconds` under the current load estimates (exposed for tests
  /// and the ablation bench).
  double ComputeDelaySeconds(double training_seconds) const;

 private:
  Options options_;
  EwmaTracker query_rate_;
  EwmaTracker latency_;
  double next_due_ = 0.0;
  bool initialized_ = false;
};

}  // namespace cdpipe

#endif  // CDPIPE_SCHEDULER_SCHEDULER_H_
