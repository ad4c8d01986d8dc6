#include "src/pipeline/vector_assembler.h"

#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

namespace {

/// Vectorizing transform kernel: walks the table block's live rows in
/// ascending order and packs the configured columns into the vector block.  Entry indices ascend by
/// construction — feature columns emit in configured order, the intercept
/// last — so the VecBlock collapsed-row invariant holds without sorting.
class AssembleVecStage final : public fusion::FusedStage {
 public:
  AssembleVecStage(std::vector<size_t> feature_slots, size_t label_slot,
                   std::string label_column, uint32_t dim, bool add_intercept)
      : feature_slots_(std::move(feature_slots)),
        label_slot_(label_slot),
        label_column_(std::move(label_column)),
        dim_(dim),
        add_intercept_(add_intercept) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    fusion::VecBlock& vec = ctx.scratch->vec;
    ctx.rows_scanned += table.live_rows;
    vec.dim = dim_;
    vec.entries.clear();
    vec.row_end.clear();
    vec.labels.clear();
    vec.saw_nan = false;
    vec.nan_rows.clear();
    const fusion::BlockColumn& label_col = table.cols[label_slot_];
    const size_t num_cols = feature_slots_.size();
    for (size_t r = 0; r < table.num_rows; ++r) {
      if (table.keep[r] == 0) continue;
      if (label_col.IsNull(r)) {
        return Status::FailedPrecondition("cannot widen null to double: " +
                                          label_column_);
      }
      bool row_has_nan = false;
      for (size_t i = 0; i < num_cols; ++i) {
        const fusion::BlockColumn& col = table.cols[feature_slots_[i]];
        if (col.IsNull(r)) continue;  // null => 0 (impute upstream)
        const double d = col.NumericAt(r);
        if (d != 0.0) {  // NaN compares unequal, so NaN cells are emitted
          vec.entries.emplace_back(static_cast<uint32_t>(i), d);
          if (std::isnan(d)) row_has_nan = true;
        }
      }
      if (add_intercept_) {
        vec.entries.emplace_back(static_cast<uint32_t>(num_cols), 1.0);
      }
      if (row_has_nan) {
        vec.saw_nan = true;
        vec.nan_rows.push_back(static_cast<uint32_t>(vec.row_end.size()));
      }
      vec.row_end.push_back(static_cast<uint32_t>(vec.entries.size()));
      vec.labels.push_back(label_col.NumericAt(r));
    }
    return Status::OK();
  }

 private:
  std::vector<size_t> feature_slots_;
  size_t label_slot_;
  std::string label_column_;
  uint32_t dim_;
  bool add_intercept_;
};

}  // namespace

VectorAssembler::VectorAssembler(Options options)
    : options_(std::move(options)) {
  CDPIPE_CHECK(!options_.feature_columns.empty());
  CDPIPE_CHECK(!options_.label_column.empty());
}

Status VectorAssembler::Fuse(fusion::PlanBuilder* plan) {
  if (plan->repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition("vector_assembler expects a table batch");
  }
  std::vector<size_t> feature_slots;
  feature_slots.reserve(options_.feature_columns.size());
  for (const std::string& column : options_.feature_columns) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(column));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition("cannot assemble non-numeric column " +
                                        column);
    }
    feature_slots.push_back(slot);
  }
  CDPIPE_ASSIGN_OR_RETURN(size_t label_slot,
                          plan->SlotOf(options_.label_column));
  if (plan->SlotDeclaredType(label_slot) == ValueType::kString) {
    return Status::FailedPrecondition("cannot assemble non-numeric column " +
                                      options_.label_column);
  }
  plan->AddStage(std::make_unique<AssembleVecStage>(
      std::move(feature_slots), label_slot, options_.label_column,
      output_dim(), options_.add_intercept));
  plan->BeginVec(output_dim());
  return Status::OK();
}

std::unique_ptr<PipelineComponent> VectorAssembler::Clone() const {
  return std::make_unique<VectorAssembler>(options_);
}

}  // namespace cdpipe
