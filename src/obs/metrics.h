#ifndef CDPIPE_OBS_METRICS_H_
#define CDPIPE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cdpipe {
namespace obs {

/// Monotonically increasing event count.  The hot path is a single relaxed
/// atomic add — safe to call from any thread, never takes a lock.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-writer-wins instantaneous value (queue depth, bytes resident, μ).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of a histogram's state; all derived statistics
/// (percentiles, mean) are computed on the snapshot so concurrent writers
/// never skew a half-read distribution.
struct HistogramSnapshot {
  /// Inclusive upper bounds, strictly increasing.  counts has one extra
  /// trailing entry: the overflow bucket (> upper_bounds.back()).
  std::vector<double> upper_bounds;
  std::vector<uint64_t> counts;
  uint64_t total_count = 0;
  double sum = 0.0;

  double Mean() const {
    return total_count > 0 ? sum / static_cast<double>(total_count) : 0.0;
  }

  /// Quantile in [0, 1] by linear interpolation inside the target bucket
  /// (the first bucket interpolates from 0, the overflow bucket is clamped
  /// to the last finite bound).  Returns 0 for an empty histogram.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram with lock-free recording: bucket lookup is a
/// binary search over an immutable bound vector, the update one relaxed
/// atomic increment per bucket plus sum/count.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty, sorted, strictly increasing.  A value
  /// lands in the first bucket whose bound is >= value (Prometheus "le"
  /// semantics); larger values land in the implicit overflow bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);
  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;
  void Reset();

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

  /// 1µs → ~100s, roughly ×4 per step — covers everything from a component
  /// transform on one row to a full retraining.
  static std::vector<double> DefaultLatencyBoundsSeconds();

 private:
  std::vector<double> upper_bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // upper_bounds_+overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Everything the registry knows at one instant, sorted by name.  This is
/// the exchange format for the exporters and the per-run report delta.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t value = 0;
    std::string help;  ///< exporter `# HELP` text, empty when unset
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
    std::string help;
  };
  struct HistogramValue {
    std::string name;
    HistogramSnapshot hist;
    std::string help;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Value of the named counter, or `fallback` when it was never recorded
  /// (report consumers read fault/retry counters this way).
  int64_t CounterValueOr(const std::string& name, int64_t fallback) const;

  /// Per-interval view between two snapshots of the same registry: counters
  /// and histogram counts/sums subtract (clamped at zero), gauges keep the
  /// `after` value.  Metrics only present in `after` count from zero.
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);
};

/// Thread-safe name → metric registry.  Registration (Get*) takes a mutex
/// and returns a stable pointer; callers cache the pointer and afterwards
/// only touch lock-free atomics.  Use Global() for production metrics and
/// private instances for isolated tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// `help` (when non-null) becomes the metric's exporter `# HELP` text;
  /// the first non-empty help registered for a name wins.
  Counter* GetCounter(const std::string& name, const char* help = nullptr);
  Gauge* GetGauge(const std::string& name, const char* help = nullptr);
  /// Empty `upper_bounds` picks the default latency buckets.  If the name is
  /// already registered, the existing histogram is returned and the bounds
  /// argument is ignored.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = {},
                          const char* help = nullptr);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (pointers stay valid).  For tests and
  /// long-lived processes that export deltas themselves.
  void ResetValues();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_METRICS_H_
