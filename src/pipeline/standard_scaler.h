#ifndef CDPIPE_PIPELINE_STANDARD_SCALER_H_
#define CDPIPE_PIPELINE_STANDARD_SCALER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/component.h"
#include "src/pipeline/flat_key_map.h"

namespace cdpipe {

/// Standardizes features using incrementally maintained mean / standard
/// deviation — the paper's canonical example of online statistics
/// computation (§3.1).
///
/// Two operating modes, chosen by the representation of the scaler's input:
///
///  - **Feature mode** (sparse vectors): per-dimension moments are
///    accumulated counting implicit zeros (sum and sum-of-squares over
///    stored entries, total row count over all rows).  Values are only
///    divided by σ, never centred, which preserves sparsity — the standard
///    treatment for high-dimensional sparse data such as URL.
///  - **Table mode**: per-column Welford accumulators over the configured
///    numeric columns; cells become (x-μ)/σ.
///
/// Dimensions with σ < 1e-12 pass through unscaled (constant features carry
/// no information; dividing by ~0 would explode them).
///
/// Data transformation (Table 1).
class StandardScaler : public PipelineComponent {
 public:
  struct Options {
    /// Table mode: columns to standardize.  Ignored in feature mode.
    std::vector<std::string> columns;
  };

  /// Dimensions with σ below this pass through undivided (see class doc).
  static constexpr double kMinStdDev = 1e-12;

  StandardScaler() : StandardScaler(Options()) {}
  explicit StandardScaler(Options options);

  std::string name() const override { return "standard_scaler"; }
  bool is_stateful() const override { return true; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  void Reset() override;
  std::unique_ptr<PipelineComponent> Clone() const override;
  Status SaveState(Serializer* out) const override;
  Status LoadState(Deserializer* in) override;

  /// Current statistics for a feature dimension (feature mode) or for the
  /// i-th configured column (table mode).
  double MeanOf(uint32_t key) const;
  double StdDevOf(uint32_t key) const;
  int64_t ObservationCount() const { return total_rows_; }
  /// False until some moment has been accumulated: every key then reads
  /// mean 0 and σ 0, and the transform is the identity.
  bool has_moments() const { return !stats_.empty(); }
  /// Changes with every statistics change (fusion::NextStatsSerial); the
  /// transform kernel's σ memo is keyed on it.
  uint64_t stats_serial() const { return stats_serial_; }

  const Options& options() const { return options_; }

 private:
  struct Moments {
    double sum = 0.0;
    double sum_squares = 0.0;
  };

  double VarianceOf(uint32_t key) const;
  /// The row count behind `key`'s moments: every row in feature mode, the
  /// column's non-null rows in table mode.
  int64_t RowsOf(uint32_t key) const;

  Options options_;
  /// Total rows seen (feature mode denominators include implicit zeros;
  /// table mode tracks per-column counts separately in `column_counts_`).
  int64_t total_rows_ = 0;
  FlatKeyMap<Moments> stats_;
  FlatKeyMap<int64_t> column_counts_;
  bool table_mode_seen_ = false;
  uint64_t stats_serial_;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_STANDARD_SCALER_H_
