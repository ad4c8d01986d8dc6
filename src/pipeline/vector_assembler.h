#ifndef CDPIPE_PIPELINE_VECTOR_ASSEMBLER_H_
#define CDPIPE_PIPELINE_VECTOR_ASSEMBLER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/component.h"

namespace cdpipe {

/// Terminal vectorizing stage for table pipelines: packs the configured
/// numeric columns into a feature vector (index i = i-th configured column)
/// and pulls the label from `label_column`.  Optionally adds a constant
/// intercept feature as the last dimension.  Stateless.
///
/// Feature selection (Table 1).
class VectorAssembler : public PipelineComponent {
 public:
  struct Options {
    std::vector<std::string> feature_columns;
    std::string label_column;
    /// Append a constant-1 feature (useful when the model has no bias).
    bool add_intercept = false;
  };

  explicit VectorAssembler(Options options);

  std::string name() const override { return "vector_assembler"; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  std::unique_ptr<PipelineComponent> Clone() const override;

  const Options& options() const { return options_; }

  uint32_t output_dim() const {
    return static_cast<uint32_t>(options_.feature_columns.size()) +
           (options_.add_intercept ? 1 : 0);
  }

 private:
  Options options_;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_VECTOR_ASSEMBLER_H_
