#include "src/pipeline/anomaly_filter.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

namespace {

/// Tests one value against a rule's bounds (NaN fails every bound).
inline bool InRange(double d, const AnomalyFilter::Rule& rule) {
  const bool above = rule.min_exclusive ? d > rule.min : d >= rule.min;
  const bool below = rule.max_exclusive ? d < rule.max : d <= rule.max;
  return above && below;
}

/// Transform kernel: flips keep bits on the shared table block instead of
/// materializing a filtered table; downstream kernels read live rows only.
class FilterTableStage final : public fusion::FusedStage {
 public:
  struct CompiledRule {
    size_t slot;
    AnomalyFilter::Rule rule;
  };

  FilterTableStage(const AnomalyFilter* filter, std::vector<CompiledRule> rules)
      : filter_(filter), rules_(std::move(rules)) {}

  const char* label() const override { return "anomaly_filter"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    size_t dropped = 0;
    for (const CompiledRule& cr : rules_) {
      const fusion::BlockColumn& col = table.cols[cr.slot];
      for (size_t r = 0; r < table.num_rows; ++r) {
        if (table.keep[r] == 0) continue;
        if (col.IsNull(r) || !InRange(col.NumericAt(r), cr.rule)) {
          table.keep[r] = 0;
          --table.live_rows;
          ++dropped;
        }
      }
    }
    if (dropped > 0) filter_->RecordDropped(dropped);
    return Status::OK();
  }

 private:
  const AnomalyFilter* filter_;
  std::vector<CompiledRule> rules_;
};

}  // namespace

AnomalyFilter::AnomalyFilter(std::string rule_name, std::vector<Rule> rules)
    : rule_name_(std::move(rule_name)), rules_(std::move(rules)) {}

std::unique_ptr<AnomalyFilter> AnomalyFilter::KeepInRange(
    const std::string& column, double min, double max) {
  std::vector<Rule> rules;
  rules.push_back(Rule{column, min, max, /*min_exclusive=*/false,
                       /*max_exclusive=*/false});
  return std::make_unique<AnomalyFilter>(
      StrFormat("%s in [%g, %g]", column.c_str(), min, max), std::move(rules));
}

Status AnomalyFilter::Fuse(fusion::PlanBuilder* plan) {
  if (plan->repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition("anomaly_filter expects a table batch");
  }
  std::vector<FilterTableStage::CompiledRule> compiled;
  compiled.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(rule.column));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition("cannot filter non-numeric column " +
                                        rule.column);
    }
    compiled.push_back(FilterTableStage::CompiledRule{slot, rule});
  }
  plan->AddStage(std::make_unique<FilterTableStage>(this, std::move(compiled)));
  return Status::OK();
}

std::unique_ptr<PipelineComponent> AnomalyFilter::Clone() const {
  auto out = std::make_unique<AnomalyFilter>(rule_name_, rules_);
  out->dropped_.store(dropped_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  return out;
}

}  // namespace cdpipe
