#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/logging.h"

namespace cdpipe {
namespace obs {

double HistogramSnapshot::Quantile(double q) const {
  if (total_count == 0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const double cum_after = static_cast<double>(cumulative + in_bucket);
    if (cum_after >= target) {
      if (i >= upper_bounds.size()) {
        // Overflow bucket has no finite upper edge; clamp to the last bound.
        return upper_bounds.back();
      }
      const double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
      const double upper = upper_bounds[i];
      const double into_bucket =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(into_bucket, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return upper_bounds.back();
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  CDPIPE_CHECK(!upper_bounds_.empty());
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    CDPIPE_CHECK_LT(upper_bounds_[i - 1], upper_bounds_[i]);
  }
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(upper_bounds_.size() + 1);
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  out.upper_bounds = upper_bounds_;
  out.counts.resize(upper_bounds_.size() + 1);
  uint64_t total = 0;
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    out.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += out.counts[i];
  }
  // Derive the total from the buckets so the snapshot is internally
  // consistent even if a concurrent Observe lands between the loads.
  out.total_count = total;
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::DefaultLatencyBoundsSeconds() {
  return {1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3,
          64e-3, 0.25,  1.0,   4.0,   16.0,   64.0};
}

int64_t MetricsSnapshot::CounterValueOr(const std::string& name,
                                        int64_t fallback) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot out;
  std::map<std::string, int64_t> counter_base;
  for (const auto& c : before.counters) counter_base[c.name] = c.value;
  out.counters.reserve(after.counters.size());
  for (const auto& c : after.counters) {
    auto it = counter_base.find(c.name);
    const int64_t base = it == counter_base.end() ? 0 : it->second;
    out.counters.push_back({c.name, std::max<int64_t>(0, c.value - base),
                            c.help});
  }

  out.gauges = after.gauges;

  std::map<std::string, const HistogramSnapshot*> hist_base;
  for (const auto& h : before.histograms) hist_base[h.name] = &h.hist;
  out.histograms.reserve(after.histograms.size());
  for (const auto& h : after.histograms) {
    HistogramValue d;
    d.name = h.name;
    d.hist = h.hist;
    d.help = h.help;
    auto it = hist_base.find(h.name);
    if (it != hist_base.end() &&
        it->second->upper_bounds == h.hist.upper_bounds) {
      const HistogramSnapshot& base = *it->second;
      uint64_t total = 0;
      for (size_t i = 0; i < d.hist.counts.size(); ++i) {
        d.hist.counts[i] = d.hist.counts[i] >= base.counts[i]
                               ? d.hist.counts[i] - base.counts[i]
                               : 0;
        total += d.hist.counts[i];
      }
      d.hist.total_count = total;
      d.hist.sum = std::max(0.0, d.hist.sum - base.sum);
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  if (help != nullptr && help[0] != '\0' && help_[name].empty()) {
    help_[name] = help;
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  if (help != nullptr && help[0] != '\0' && help_[name].empty()) {
    help_[name] = help;
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds,
                                         const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (upper_bounds.empty()) {
      upper_bounds = Histogram::DefaultLatencyBoundsSeconds();
    }
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  if (help != nullptr && help[0] != '\0' && help_[name].empty()) {
    help_[name] = help;
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto help_for = [this](const std::string& name) {
    auto it = help_.find(name);
    return it == help_.end() ? std::string() : it->second;
  };
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->Value(), help_for(name)});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.push_back({name, gauge->Value(), help_for(name)});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.push_back({name, histogram->Snapshot(), help_for(name)});
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace obs
}  // namespace cdpipe
