#include "src/scheduler/scheduler.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace {

struct SchedulerMetrics {
  obs::Counter* decisions_train;
  obs::Counter* decisions_skip;
  obs::Gauge* next_due_seconds;
  obs::Histogram* delay_seconds;

  static const SchedulerMetrics& Get() {
    static const SchedulerMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      SchedulerMetrics m;
      m.decisions_train = registry.GetCounter("scheduler.decisions_train");
      m.decisions_skip = registry.GetCounter("scheduler.decisions_skip");
      m.next_due_seconds = registry.GetGauge("scheduler.next_due_seconds");
      m.delay_seconds = registry.GetHistogram(
          "scheduler.delay_seconds",
          {1e-3, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 86400.0});
      return m;
    }();
    return metrics;
  }
};

void RecordDecision(bool train) {
  if (train) {
    SchedulerMetrics::Get().decisions_train->Increment();
  } else {
    SchedulerMetrics::Get().decisions_skip->Increment();
  }
}

}  // namespace

StaticScheduler::StaticScheduler(double interval_seconds)
    : interval_seconds_(interval_seconds) {
  CDPIPE_CHECK_GT(interval_seconds_, 0.0);
}

bool StaticScheduler::ShouldTrain(double now_seconds) {
  if (!initialized_) {
    next_due_ = now_seconds + interval_seconds_;
    initialized_ = true;
    SchedulerMetrics::Get().next_due_seconds->Set(next_due_);
  }
  const bool train = now_seconds >= next_due_;
  RecordDecision(train);
  return train;
}

void StaticScheduler::OnTrainingCompleted(double start_seconds,
                                          double duration_seconds) {
  (void)duration_seconds;
  next_due_ = start_seconds + interval_seconds_;
  SchedulerMetrics::Get().next_due_seconds->Set(next_due_);
}

DynamicScheduler::DynamicScheduler(Options options) : options_(options) {
  CDPIPE_CHECK_GE(options_.slack, 1.0);
  CDPIPE_CHECK_GT(options_.min_interval_seconds, 0.0);
}

bool DynamicScheduler::ShouldTrain(double now_seconds) {
  if (!initialized_) {
    next_due_ = now_seconds + options_.initial_interval_seconds;
    initialized_ = true;
    SchedulerMetrics::Get().next_due_seconds->Set(next_due_);
  }
  const bool train = now_seconds >= next_due_;
  RecordDecision(train);
  return train;
}

double DynamicScheduler::ComputeDelaySeconds(double training_seconds) const {
  if (!query_rate_.initialized() || !latency_.initialized()) {
    return std::max(options_.min_interval_seconds,
                    options_.initial_interval_seconds);
  }
  // Formula (6): T' = S * T * pr * pl.
  const double delay = options_.slack * training_seconds *
                       query_rate_.value() * latency_.value();
  return std::max(options_.min_interval_seconds, delay);
}

void DynamicScheduler::OnTrainingCompleted(double start_seconds,
                                           double duration_seconds) {
  const double delay = ComputeDelaySeconds(duration_seconds);
  next_due_ = start_seconds + duration_seconds + delay;
  SchedulerMetrics::Get().delay_seconds->Observe(delay);
  SchedulerMetrics::Get().next_due_seconds->Set(next_due_);
}

void DynamicScheduler::OnPredictionLoad(double queries_per_second,
                                        double latency_seconds_per_item) {
  if (queries_per_second > 0.0) query_rate_.Observe(queries_per_second);
  if (latency_seconds_per_item > 0.0) latency_.Observe(latency_seconds_per_item);
}

}  // namespace cdpipe
