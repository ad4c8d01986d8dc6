#include "src/pipeline/missing_value_imputer.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

namespace {

/// Feature-mode transform kernel: replaces NaN entries in the vector block
/// in place.  The parser records which rows contain a NaN (`nan_rows`); the
/// fill scan touches only those rows, and a block with none — the
/// overwhelmingly common case — is skipped entirely and counted as a
/// runtime elision.
class ImputeVecStage final : public fusion::FusedStage {
 public:
  explicit ImputeVecStage(const MissingValueImputer* imputer)
      : imputer_(imputer) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::VecBlock& vec = ctx.scratch->vec;
    ctx.rows_scanned += vec.num_rows();
    if (!vec.saw_nan) {
      ++ctx.stages_elided;
      return Status::OK();
    }
    for (const uint32_t r : vec.nan_rows) {
      const uint32_t start = r > 0 ? vec.row_end[r - 1] : 0;
      const uint32_t stop = vec.row_end[r];
      for (uint32_t k = start; k < stop; ++k) {
        auto& entry = vec.entries[k];
        if (std::isnan(entry.second)) {
          entry.second = imputer_->MeanForDimension(entry.first);
        }
      }
    }
    vec.saw_nan = false;
    vec.nan_rows.clear();
    return Status::OK();
  }

 private:
  const MissingValueImputer* imputer_;
};

/// Table-mode transform kernel.  Fill values are read when the block
/// starts.  Columns with no nulls in the block are skipped; a block where
/// every configured column is clean counts as an elision.
class ImputeTableStage final : public fusion::FusedStage {
 public:
  ImputeTableStage(const MissingValueImputer* imputer,
                   std::vector<size_t> slots)
      : imputer_(imputer), slots_(std::move(slots)) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    bool did_work = false;
    for (size_t c = 0; c < slots_.size(); ++c) {
      fusion::BlockColumn& col = table.cols[slots_[c]];
      if (!col.any_null) continue;
      did_work = true;
      // The fill value is fractional in general, so integer columns widen.
      const double fill =
          imputer_->MeanForDimension(static_cast<uint32_t>(c));
      col.PromoteToDouble();
      for (size_t r = 0; r < col.null.size(); ++r) {
        if (col.null[r]) col.d[r] = fill;
      }
      col.any_null = false;
    }
    if (!did_work) ++ctx.stages_elided;
    return Status::OK();
  }

 private:
  const MissingValueImputer* imputer_;
  std::vector<size_t> slots_;
};

}  // namespace

MissingValueImputer::MissingValueImputer(Options options)
    : options_(std::move(options)) {}

Status MissingValueImputer::Fuse(fusion::PlanBuilder* plan) {
  using Repr = fusion::PlanBuilder::Repr;
  if (plan->repr() == Repr::kVec) {
    plan->AddUpdateStage(fusion::MakeStage(
        [this](fusion::ExecContext& ctx) {
          const fusion::VecBlock& vec = ctx.scratch->vec;
          ctx.rows_scanned += vec.num_rows();
          for (const auto& [index, value] : vec.entries) {
            if (std::isnan(value)) continue;
            RunningMean& rm = stats_[index];
            rm.count += 1;
            rm.sum += value;
          }
          return Status::OK();
        }));
    plan->AddStage(std::make_unique<ImputeVecStage>(this));
    return Status::OK();
  }
  if (plan->repr() != Repr::kTable) {
    return Status::FailedPrecondition(
        "missing_value_imputer expects a table or vectorized batch");
  }
  std::vector<size_t> slots;
  slots.reserve(options_.columns.size());
  for (const std::string& column : options_.columns) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(column));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition("cannot impute non-numeric column " +
                                        column);
    }
    slots.push_back(slot);
  }
  plan->AddUpdateStage(fusion::MakeStage(
      [this, slots](fusion::ExecContext& ctx) {
        const fusion::TableBlock& table = ctx.scratch->table;
        ctx.rows_scanned += table.live_rows;
        for (size_t c = 0; c < slots.size(); ++c) {
          const fusion::BlockColumn& col = table.cols[slots[c]];
          RunningMean& rm = stats_[static_cast<uint32_t>(c)];
          for (size_t r = 0; r < table.num_rows; ++r) {
            if (table.keep[r] == 0 || col.IsNull(r)) continue;
            rm.count += 1;
            rm.sum += col.NumericAt(r);
          }
        }
        return Status::OK();
      }));
  if (slots.empty()) {
    plan->AddElidedStage();
  } else {
    plan->AddStage(std::make_unique<ImputeTableStage>(this, std::move(slots)));
  }
  return Status::OK();
}

void MissingValueImputer::Reset() { stats_.clear(); }

std::unique_ptr<PipelineComponent> MissingValueImputer::Clone() const {
  auto out = std::make_unique<MissingValueImputer>(options_);
  out->stats_ = stats_;
  return out;
}

Status MissingValueImputer::SaveState(Serializer* out) const {
  // Deterministic order: sort by dimension.
  const std::vector<std::pair<uint32_t, RunningMean>> sorted = stats_.Sorted();
  std::vector<uint32_t> dims;
  std::vector<double> counts;
  std::vector<double> sums;
  dims.reserve(sorted.size());
  for (const auto& [dim, rm] : sorted) {
    dims.push_back(dim);
    counts.push_back(static_cast<double>(rm.count));
    sums.push_back(rm.sum);
  }
  out->WriteUint32Vector("imputer.dims", dims);
  out->WriteDoubleVector("imputer.counts", counts);
  out->WriteDoubleVector("imputer.sums", sums);
  return Status::OK();
}

Status MissingValueImputer::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(auto dims, in->ReadUint32Vector("imputer.dims"));
  CDPIPE_ASSIGN_OR_RETURN(auto counts, in->ReadDoubleVector("imputer.counts"));
  CDPIPE_ASSIGN_OR_RETURN(auto sums, in->ReadDoubleVector("imputer.sums"));
  if (dims.size() != counts.size() || dims.size() != sums.size()) {
    return Status::InvalidArgument("imputer state arrays misaligned");
  }
  FlatKeyMap<RunningMean> stats;
  for (size_t i = 0; i < dims.size(); ++i) {
    CDPIPE_ASSIGN_OR_RETURN(int64_t count,
                            CountFromDouble(counts[i], "imputer count"));
    stats[dims[i]] = RunningMean{count, sums[i]};
  }
  stats_ = std::move(stats);
  return Status::OK();
}

double MissingValueImputer::MeanForDimension(uint32_t dim) const {
  const RunningMean* rm = stats_.find(dim);
  if (rm == nullptr) return options_.default_value;
  return rm->Mean(options_.default_value);
}

}  // namespace cdpipe
