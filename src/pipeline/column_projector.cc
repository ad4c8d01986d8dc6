#include "src/pipeline/column_projector.h"

#include <utility>

#include "src/common/logging.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

ColumnProjector::ColumnProjector(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  CDPIPE_CHECK(!columns_.empty());
}

Status ColumnProjector::Fuse(fusion::PlanBuilder* plan) {
  if (plan->repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition("column_projector expects a table batch");
  }
  // Projection only rewires the plan's logical-field -> physical-slot map;
  // downstream components compile against the projected schema and the
  // stage itself does no per-row work at all.
  CDPIPE_RETURN_NOT_OK(plan->Project(columns_));
  plan->AddElidedStage();
  return Status::OK();
}

std::unique_ptr<PipelineComponent> ColumnProjector::Clone() const {
  return std::make_unique<ColumnProjector>(columns_);
}

}  // namespace cdpipe
