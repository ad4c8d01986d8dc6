#ifndef CDPIPE_PIPELINE_ANOMALY_FILTER_H_
#define CDPIPE_PIPELINE_ANOMALY_FILTER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/component.h"

namespace cdpipe {

/// Drops anomalous rows from a table batch — the Taxi pipeline's anomaly
/// detector (trips longer than 22 hours, shorter than 10 seconds, or with
/// zero distance).  Stateless data transformation (a filter, Table 1 of the
/// paper), declared as a conjunction of per-column range rules; null cells
/// are dropped as anomalous.  The rules compile into a block kernel that
/// flips the keep mask without materializing a filtered table.
class AnomalyFilter : public PipelineComponent {
 public:
  /// One range condition on a numeric column: a row survives when
  /// min </<= value </<= max (bounds infinite by default).  Null cells
  /// never survive a rule.
  struct Rule {
    std::string column;
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    bool min_exclusive = false;
    bool max_exclusive = false;
  };

  /// Keeps rows satisfying every rule.
  AnomalyFilter(std::string rule_name, std::vector<Rule> rules);

  std::string name() const override { return "anomaly_filter(" + rule_name_ + ")"; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  std::unique_ptr<PipelineComponent> Clone() const override;

  /// Total rows dropped since construction.
  size_t num_dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Adds to the dropped-row counter (the transform kernel's drops).
  void RecordDropped(size_t n) const {
    dropped_.fetch_add(n, std::memory_order_relaxed);
  }

  const std::vector<Rule>& rules() const { return rules_; }

 private:
  std::string rule_name_;
  std::vector<Rule> rules_;
  mutable std::atomic<size_t> dropped_{0};
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_ANOMALY_FILTER_H_
