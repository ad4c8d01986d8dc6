#include "src/pipeline/zscore_anomaly_detector.h"

#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

namespace {

/// Transform kernel.  The per-column mean and |x - mean| limit are read
/// when the block starts; uncalibrated and constant columns never vote,
/// and a block where no column votes counts as an elision.
class ZScoreTableStage final : public fusion::FusedStage {
 public:
  ZScoreTableStage(const ZScoreAnomalyDetector* detector,
                   std::vector<size_t> slots)
      : detector_(detector), slots_(std::move(slots)) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    size_t dropped = 0;
    bool voted = false;
    for (size_t c = 0; c < slots_.size(); ++c) {
      const double limit = detector_->LimitOf(c);
      if (limit < 0.0) continue;
      voted = true;
      const double mean = detector_->MeanOf(c);
      const fusion::BlockColumn& col = table.cols[slots_[c]];
      for (size_t r = 0; r < table.num_rows; ++r) {
        if (table.keep[r] == 0) continue;
        if (col.IsNull(r)) continue;  // null never votes to drop
        if (std::abs(col.NumericAt(r) - mean) > limit) {
          table.keep[r] = 0;
          --table.live_rows;
          ++dropped;
        }
      }
    }
    if (!voted) ++ctx.stages_elided;
    if (dropped > 0) detector_->RecordDropped(dropped);
    return Status::OK();
  }

 private:
  const ZScoreAnomalyDetector* detector_;
  std::vector<size_t> slots_;
};

}  // namespace

ZScoreAnomalyDetector::ZScoreAnomalyDetector(Options options)
    : options_(std::move(options)), stats_(options_.columns.size()) {
  CDPIPE_CHECK(!options_.columns.empty());
  CDPIPE_CHECK_GT(options_.threshold, 0.0);
}

Status ZScoreAnomalyDetector::Fuse(fusion::PlanBuilder* plan) {
  if (plan->repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition(
        "zscore_anomaly_detector expects a table batch");
  }
  std::vector<size_t> slots;
  slots.reserve(options_.columns.size());
  for (const std::string& column : options_.columns) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(column));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition(
          "cannot compute z-scores for non-numeric column " + column);
    }
    slots.push_back(slot);
  }
  plan->AddUpdateStage(fusion::MakeStage(
      [this, slots](fusion::ExecContext& ctx) {
        const fusion::TableBlock& table = ctx.scratch->table;
        ctx.rows_scanned += table.live_rows;
        for (size_t c = 0; c < slots.size(); ++c) {
          const fusion::BlockColumn& col = table.cols[slots[c]];
          for (size_t r = 0; r < table.num_rows; ++r) {
            if (table.keep[r] == 0 || col.IsNull(r)) continue;
            stats_[c].Add(col.NumericAt(r));
          }
        }
        return Status::OK();
      }));
  plan->AddStage(std::make_unique<ZScoreTableStage>(this, std::move(slots)));
  return Status::OK();
}

double ZScoreAnomalyDetector::LimitOf(size_t column) const {
  const Welford& w = stats_[column];
  if (w.count < options_.min_observations) return -1.0;  // not calibrated
  const double sd = std::sqrt(w.Variance());
  if (sd <= 0.0) return -1.0;  // constant column: nothing is anomalous
  return options_.threshold * sd;
}

void ZScoreAnomalyDetector::Reset() {
  for (Welford& w : stats_) w = Welford{};
}

std::unique_ptr<PipelineComponent> ZScoreAnomalyDetector::Clone() const {
  auto out = std::make_unique<ZScoreAnomalyDetector>(options_);
  out->stats_ = stats_;
  out->dropped_.store(dropped_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  return out;
}

Status ZScoreAnomalyDetector::SaveState(Serializer* out) const {
  out->WriteInt("zscore.num_columns",
                static_cast<int64_t>(stats_.size()));
  std::vector<double> counts;
  std::vector<double> means;
  std::vector<double> m2s;
  for (const Welford& w : stats_) {
    counts.push_back(static_cast<double>(w.count));
    means.push_back(w.mean);
    m2s.push_back(w.m2);
  }
  out->WriteDoubleVector("zscore.counts", counts);
  out->WriteDoubleVector("zscore.means", means);
  out->WriteDoubleVector("zscore.m2s", m2s);
  return Status::OK();
}

Status ZScoreAnomalyDetector::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(int64_t num_columns,
                          in->ReadInt("zscore.num_columns"));
  if (num_columns != static_cast<int64_t>(stats_.size())) {
    return Status::InvalidArgument(
        "z-score checkpoint has a different number of columns");
  }
  CDPIPE_ASSIGN_OR_RETURN(auto counts, in->ReadDoubleVector("zscore.counts"));
  CDPIPE_ASSIGN_OR_RETURN(auto means, in->ReadDoubleVector("zscore.means"));
  CDPIPE_ASSIGN_OR_RETURN(auto m2s, in->ReadDoubleVector("zscore.m2s"));
  if (counts.size() != stats_.size() || means.size() != stats_.size() ||
      m2s.size() != stats_.size()) {
    return Status::InvalidArgument("z-score state arrays misaligned");
  }
  std::vector<Welford> stats(stats_.size());
  for (size_t c = 0; c < stats.size(); ++c) {
    CDPIPE_ASSIGN_OR_RETURN(stats[c].count,
                            CountFromDouble(counts[c], "z-score count"));
    stats[c].mean = means[c];
    stats[c].m2 = m2s[c];
  }
  stats_ = std::move(stats);
  return Status::OK();
}

double ZScoreAnomalyDetector::MeanOf(size_t column) const {
  CDPIPE_CHECK_LT(column, stats_.size());
  return stats_[column].mean;
}

double ZScoreAnomalyDetector::StdDevOf(size_t column) const {
  CDPIPE_CHECK_LT(column, stats_.size());
  return std::sqrt(stats_[column].Variance());
}

int64_t ZScoreAnomalyDetector::CountOf(size_t column) const {
  CDPIPE_CHECK_LT(column, stats_.size());
  return stats_[column].count;
}

}  // namespace cdpipe
