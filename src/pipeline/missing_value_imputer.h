#ifndef CDPIPE_PIPELINE_MISSING_VALUE_IMPUTER_H_
#define CDPIPE_PIPELINE_MISSING_VALUE_IMPUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/component.h"
#include "src/pipeline/flat_key_map.h"

namespace cdpipe {

/// Replaces missing values with the running mean of the observed values —
/// per feature dimension for vectorized batches (NaN entries), per column
/// for table batches (null cells).
///
/// The mean is an incrementally maintainable statistic, so this component
/// participates in online statistics computation (§3.1): its update kernel
/// folds each arriving chunk into per-dimension (count, sum) accumulators
/// and its transform kernel reads them without rescanning history.
///
/// Data transformation (Table 1).
class MissingValueImputer : public PipelineComponent {
 public:
  struct Options {
    /// Table mode: columns to impute.  Ignored for feature batches.
    std::vector<std::string> columns;
    /// Value used when a dimension has never been observed.
    double default_value = 0.0;
  };

  MissingValueImputer() : MissingValueImputer(Options()) {}
  explicit MissingValueImputer(Options options);

  std::string name() const override { return "missing_value_imputer"; }
  bool is_stateful() const override { return true; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  void Reset() override;
  std::unique_ptr<PipelineComponent> Clone() const override;
  Status SaveState(Serializer* out) const override;
  Status LoadState(Deserializer* in) override;

  const Options& options() const { return options_; }

  /// Current imputation value for a feature dimension / column index.
  double MeanForDimension(uint32_t dim) const;

 private:
  struct RunningMean {
    int64_t count = 0;
    double sum = 0.0;
    double Mean(double fallback) const {
      return count > 0 ? sum / static_cast<double>(count) : fallback;
    }
  };

  Options options_;
  /// Feature mode: keyed by feature index.  Table mode: keyed by the index
  /// of the column within `options_.columns`.
  FlatKeyMap<RunningMean> stats_;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_MISSING_VALUE_IMPUTER_H_
