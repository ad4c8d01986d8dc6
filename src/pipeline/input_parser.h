#ifndef CDPIPE_PIPELINE_INPUT_PARSER_H_
#define CDPIPE_PIPELINE_INPUT_PARSER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/dataframe/schema.h"
#include "src/pipeline/component.h"

namespace cdpipe {

/// Parses raw text records (one chunk record each) into typed data; must be
/// the first component of a pipeline.  Two formats cover the paper's
/// pipelines:
///
///  - **LibSvm**: `"<label> <index>:<value> <index>:<value> ..."` — the URL
///    dataset's representation.  Produces vectorized rows directly (labels
///    are mapped to ±1 for classifiers).  A value spelled `nan` is parsed as
///    a missing value, to be filled by the MissingValueImputer.
///  - **Csv**: delimiter-separated fields parsed against a target schema —
///    the Taxi dataset's representation.  Produces table rows.
///
/// Malformed records are dropped (and counted) unless `strict` is set, in
/// which case parsing fails with InvalidArgument.  Dropping is the right
/// deployment behaviour: one bad record must not stall the platform.
class InputParser : public PipelineComponent {
 public:
  enum class Format { kLibSvm, kCsv };

  struct Options {
    Format format = Format::kLibSvm;
    /// LibSvm: nominal feature dimension (indices must be < dim).
    uint32_t feature_dim = 0;
    /// LibSvm: map labels <= 0 to -1 and > 0 to +1 (classification).
    bool binarize_labels = true;
    /// Csv: target schema (field order matches column order).
    std::shared_ptr<const Schema> csv_schema;
    char delimiter = ',';
    /// Fail on malformed records instead of dropping them.
    bool strict = false;
  };

  explicit InputParser(Options options);

  std::string name() const override { return "input_parser"; }
  ComponentKind kind() const override {
    return ComponentKind::kDataTransformation;
  }

  Status Fuse(fusion::PlanBuilder* plan) override;
  std::unique_ptr<PipelineComponent> Clone() const override;

  const Options& options() const { return options_; }

  /// Total records dropped as malformed since construction.
  size_t num_malformed() const {
    return malformed_.load(std::memory_order_relaxed);
  }

  /// Outcome for one record on the drop-malformed path.
  enum class RowVerdict { kOk, kMalformed };

  /// One CSV cell parsed into its typed slot, pending the verdict on the
  /// whole record (malformed records are dropped atomically).
  struct CsvCell {
    bool null = false;
    double d = 0.0;
    int64_t i = 0;
    std::string_view s;
  };

  /// Per-row libsvm kernel of the parse stage: parses `line` into
  /// uncollapsed (index, value) entries plus the (possibly binarized)
  /// label, using `*tokens` as reusable scratch.
  /// Counts a malformed record and returns kMalformed — or InvalidArgument
  /// in strict mode.  Indices are validated against feature_dim.
  Result<RowVerdict> ParseLibSvmRecord(
      std::string_view line, std::vector<std::pair<uint32_t, double>>* entries,
      double* label, std::vector<std::string_view>* tokens) const;

  /// Per-row CSV kernel of the parse stage: splits `line` on the delimiter
  /// into `*fields` and parses each against the csv schema into `*cells`
  /// (which must be presized to the schema's field count).
  Result<RowVerdict> ParseCsvRecord(std::string_view line,
                                    std::vector<std::string_view>* fields,
                                    std::vector<CsvCell>* cells) const;

 private:
  Options options_;
  mutable std::atomic<size_t> malformed_{0};
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_INPUT_PARSER_H_
