#ifndef CDPIPE_PIPELINE_ZSCORE_ANOMALY_DETECTOR_H_
#define CDPIPE_PIPELINE_ZSCORE_ANOMALY_DETECTOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pipeline/component.h"

namespace cdpipe {

/// Native anomaly detection (the paper's §7 future work, alongside concept
/// drift): instead of hand-written range predicates (AnomalyFilter), this
/// component *learns* per-column location/scale statistics incrementally and
/// drops rows whose configured columns deviate more than `threshold`
/// standard deviations from the running mean.
///
/// The statistics (count, mean, M2 — Welford) are incrementally
/// maintainable, so the component fully participates in online statistics
/// computation (§3.1) and checkpointing.  Until `min_observations` values
/// have been seen for a column, that column never votes to drop a row (a
/// cold detector must not discard the data it needs to calibrate).
///
/// Data transformation (Table 1).
class ZScoreAnomalyDetector : public PipelineComponent {
 public:
  struct Options {
    std::vector<std::string> columns;
    double threshold = 4.0;
    int64_t min_observations = 100;
  };

  explicit ZScoreAnomalyDetector(Options options);

  std::string name() const override { return "zscore_anomaly_detector"; }
  bool is_stateful() const override { return true; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  void Reset() override;
  std::unique_ptr<PipelineComponent> Clone() const override;
  Status SaveState(Serializer* out) const override;
  Status LoadState(Deserializer* in) override;

  /// Current statistics for the i-th configured column.
  double MeanOf(size_t column) const;
  double StdDevOf(size_t column) const;
  int64_t CountOf(size_t column) const;
  /// Rows dropped as anomalous since construction.
  size_t num_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Adds to the dropped-row counter (the transform kernel's drops).
  void RecordDropped(size_t n) const {
    dropped_.fetch_add(n, std::memory_order_relaxed);
  }
  /// The |x - mean| limit beyond which column c votes to drop a row, or a
  /// negative value while the column does not vote (fewer than
  /// min_observations values seen, or zero variance).
  double LimitOf(size_t column) const;

  const Options& options() const { return options_; }

 private:
  struct Welford {
    int64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;

    void Add(double x) {
      ++count;
      const double delta = x - mean;
      mean += delta / static_cast<double>(count);
      m2 += delta * (x - mean);
    }
    double Variance() const {
      return count > 1 ? m2 / static_cast<double>(count) : 0.0;
    }
  };

  Options options_;
  std::vector<Welford> stats_;  ///< parallel to options_.columns
  mutable std::atomic<size_t> dropped_{0};
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_ZSCORE_ANOMALY_DETECTOR_H_
