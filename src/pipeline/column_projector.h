#ifndef CDPIPE_PIPELINE_COLUMN_PROJECTOR_H_
#define CDPIPE_PIPELINE_COLUMN_PROJECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/component.h"

namespace cdpipe {

/// Feature selection (Table 1): keeps only the configured columns of a
/// table batch, in the configured order.  Stateless.
class ColumnProjector : public PipelineComponent {
 public:
  explicit ColumnProjector(std::vector<std::string> columns);

  std::string name() const override { return "column_projector"; }
  ComponentKind kind() const override {
    return ComponentKind::kFeatureSelection;
  }

  Status Fuse(fusion::PlanBuilder* plan) override;
  std::unique_ptr<PipelineComponent> Clone() const override;

  const std::vector<std::string>& columns() const { return columns_; }

 private:
  std::vector<std::string> columns_;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_COLUMN_PROJECTOR_H_
