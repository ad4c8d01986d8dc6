#include "src/pipeline/standard_scaler.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {
namespace {

constexpr double kMinStdDev = StandardScaler::kMinStdDev;

/// Feature-mode transform kernel: divides each entry by its key's σ.  σ
/// per key is memoized in the per-thread scratch for the scaler's current
/// statistics serial, so each key costs one lookup + sqrt per statistics
/// state rather than one per entry.
class ScaleVecStage final : public fusion::FusedStage {
 public:
  explicit ScaleVecStage(const StandardScaler* scaler) : scaler_(scaler) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::VecBlock& vec = ctx.scratch->vec;
    ctx.rows_scanned += vec.num_rows();
    if (!scaler_->has_moments()) {
      ++ctx.stages_elided;
      return Status::OK();
    }
    const uint32_t dim = vec.dim;
    if (dim > (1u << 20)) {
      for (auto& entry : vec.entries) {
        const double sd = scaler_->StdDevOf(entry.first);
        if (sd > kMinStdDev) entry.second = entry.second / sd;
      }
      return Status::OK();
    }
    fusion::StatsMemo& memo = ctx.scratch->scaler_memo;
    memo.Bind(scaler_->stats_serial(), dim);
    // 8 bytes per key keeps the random lookups cache-resident at typical
    // hashed dims.
    for (auto& entry : vec.entries) {
      double sd = memo.sd[entry.first];
      if (sd == fusion::StatsMemo::kUnfilled) {
        sd = scaler_->StdDevOf(entry.first);
        memo.sd[entry.first] = sd;
        memo.filled.push_back(entry.first);
      }
      if (sd > kMinStdDev) entry.second = entry.second / sd;
    }
    return Status::OK();
  }

 private:
  const StandardScaler* scaler_;
};

/// Table-mode transform kernel: (x - μ) / σ per configured column.  μ and
/// σ per column are memoized for the scaler's statistics serial, as in the
/// feature-mode kernel (blocks are as small as a 60-row chunk, where the
/// map lookups behind MeanOf/StdDevOf would be a visible share).  Division
/// stays per-cell and dead (filtered) rows are scaled harmlessly: their
/// cells are never read.
class ScaleTableStage final : public fusion::FusedStage {
 public:
  ScaleTableStage(const StandardScaler* scaler, std::vector<size_t> slots)
      : scaler_(scaler), slots_(std::move(slots)) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    if (!scaler_->has_moments()) {
      ++ctx.stages_elided;
      return Status::OK();
    }
    fusion::StatsMemo& memo = ctx.scratch->scaler_memo;
    memo.Bind(scaler_->stats_serial(), slots_.size());
    if (memo.mean.size() != slots_.size()) memo.mean.resize(slots_.size());
    for (size_t c = 0; c < slots_.size(); ++c) {
      if (memo.sd[c] == fusion::StatsMemo::kUnfilled) {
        const uint32_t key = static_cast<uint32_t>(c);
        memo.sd[c] = scaler_->StdDevOf(key);
        memo.mean[c] = scaler_->MeanOf(key);
        memo.filled.push_back(key);
      }
      const double mean = memo.mean[c];
      const double sd = memo.sd[c];
      fusion::BlockColumn& col = table.cols[slots_[c]];
      col.PromoteToDouble();
      const size_t rows = col.d.size();
      if (sd > kMinStdDev) {
        if (!col.any_null) {
          for (size_t r = 0; r < rows; ++r) {
            col.d[r] = (col.d[r] - mean) / sd;
          }
        } else {
          for (size_t r = 0; r < rows; ++r) {
            if (col.null[r]) continue;
            col.d[r] = (col.d[r] - mean) / sd;
          }
        }
      } else {
        if (!col.any_null) {
          for (size_t r = 0; r < rows; ++r) col.d[r] = col.d[r] - mean;
        } else {
          for (size_t r = 0; r < rows; ++r) {
            if (col.null[r]) continue;
            col.d[r] = col.d[r] - mean;
          }
        }
      }
    }
    return Status::OK();
  }

 private:
  const StandardScaler* scaler_;
  std::vector<size_t> slots_;
};

}  // namespace

StandardScaler::StandardScaler(Options options)
    : options_(std::move(options)),
      stats_serial_(fusion::NextStatsSerial()) {}

double StandardScaler::MeanOf(uint32_t key) const {
  const Moments* m = stats_.find(key);
  if (m == nullptr) return 0.0;
  const int64_t n = RowsOf(key);
  if (n <= 0) return 0.0;
  return m->sum / static_cast<double>(n);
}

double StandardScaler::VarianceOf(uint32_t key) const {
  const Moments* m = stats_.find(key);
  if (m == nullptr) return 0.0;
  const int64_t n = RowsOf(key);
  if (n <= 0) return 0.0;
  const double mean = m->sum / static_cast<double>(n);
  const double var = m->sum_squares / static_cast<double>(n) - mean * mean;
  return var > 0.0 ? var : 0.0;
}

int64_t StandardScaler::RowsOf(uint32_t key) const {
  if (!table_mode_seen_) return total_rows_;
  const int64_t* count = column_counts_.find(key);
  return count != nullptr ? *count : 0;
}

double StandardScaler::StdDevOf(uint32_t key) const {
  return std::sqrt(VarianceOf(key));
}

Status StandardScaler::Fuse(fusion::PlanBuilder* plan) {
  using Repr = fusion::PlanBuilder::Repr;
  if (plan->repr() == Repr::kVec) {
    plan->AddUpdateStage(fusion::MakeStage(
        [this](fusion::ExecContext& ctx) {
          const fusion::VecBlock& vec = ctx.scratch->vec;
          ctx.rows_scanned += vec.num_rows();
          total_rows_ += static_cast<int64_t>(vec.num_rows());
          for (const auto& [index, value] : vec.entries) {
            if (std::isnan(value)) continue;  // imputation happens upstream
            Moments& m = stats_[index];
            m.sum += value;
            m.sum_squares += value * value;
          }
          stats_serial_ = fusion::NextStatsSerial();
          return Status::OK();
        }));
    plan->AddStage(std::make_unique<ScaleVecStage>(this));
    return Status::OK();
  }
  if (plan->repr() != Repr::kTable) {
    return Status::FailedPrecondition(
        "standard_scaler expects a table or vectorized batch");
  }
  std::vector<size_t> slots;
  slots.reserve(options_.columns.size());
  for (const std::string& column : options_.columns) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(column));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition("cannot scale non-numeric column " +
                                        column);
    }
    slots.push_back(slot);
  }
  plan->AddUpdateStage(fusion::MakeStage(
      [this, slots](fusion::ExecContext& ctx) {
        const fusion::TableBlock& table = ctx.scratch->table;
        ctx.rows_scanned += table.live_rows;
        table_mode_seen_ = true;
        total_rows_ += static_cast<int64_t>(table.live_rows);
        for (size_t c = 0; c < slots.size(); ++c) {
          const fusion::BlockColumn& col = table.cols[slots[c]];
          Moments& m = stats_[static_cast<uint32_t>(c)];
          int64_t& count = column_counts_[static_cast<uint32_t>(c)];
          for (size_t r = 0; r < table.num_rows; ++r) {
            if (table.keep[r] == 0 || col.IsNull(r)) continue;
            const double d = col.NumericAt(r);
            m.sum += d;
            m.sum_squares += d * d;
            ++count;
          }
        }
        stats_serial_ = fusion::NextStatsSerial();
        return Status::OK();
      }));
  if (slots.empty()) {
    plan->AddElidedStage();
  } else {
    plan->AddStage(std::make_unique<ScaleTableStage>(this, std::move(slots)));
  }
  return Status::OK();
}

void StandardScaler::Reset() {
  stats_.clear();
  column_counts_.clear();
  total_rows_ = 0;
  table_mode_seen_ = false;
  stats_serial_ = fusion::NextStatsSerial();
}

std::unique_ptr<PipelineComponent> StandardScaler::Clone() const {
  auto out = std::make_unique<StandardScaler>(options_);
  out->total_rows_ = total_rows_;
  out->stats_ = stats_;
  out->column_counts_ = column_counts_;
  out->table_mode_seen_ = table_mode_seen_;
  return out;
}

Status StandardScaler::SaveState(Serializer* out) const {
  out->WriteInt("scaler.total_rows", total_rows_);
  out->WriteInt("scaler.table_mode", table_mode_seen_ ? 1 : 0);
  std::vector<uint32_t> keys;
  std::vector<double> sums;
  std::vector<double> sum_squares;
  for (const auto& [key, m] : stats_.Sorted()) {
    keys.push_back(key);
    sums.push_back(m.sum);
    sum_squares.push_back(m.sum_squares);
  }
  out->WriteUint32Vector("scaler.keys", keys);
  out->WriteDoubleVector("scaler.sums", sums);
  out->WriteDoubleVector("scaler.sum_squares", sum_squares);
  std::vector<std::pair<uint32_t, double>> counts;
  for (const auto& [key, count] : column_counts_.Sorted()) {
    counts.emplace_back(key, static_cast<double>(count));
  }
  out->WritePairs("scaler.column_counts", counts);
  return Status::OK();
}

Status StandardScaler::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(int64_t total_rows, in->ReadInt("scaler.total_rows"));
  CDPIPE_ASSIGN_OR_RETURN(int64_t table_mode,
                          in->ReadInt("scaler.table_mode"));
  CDPIPE_ASSIGN_OR_RETURN(auto keys, in->ReadUint32Vector("scaler.keys"));
  CDPIPE_ASSIGN_OR_RETURN(auto sums, in->ReadDoubleVector("scaler.sums"));
  CDPIPE_ASSIGN_OR_RETURN(auto sum_squares,
                          in->ReadDoubleVector("scaler.sum_squares"));
  if (keys.size() != sums.size() || keys.size() != sum_squares.size()) {
    return Status::InvalidArgument("scaler state arrays misaligned");
  }
  if (total_rows < 0) {
    return Status::InvalidArgument("scaler row count is negative");
  }
  CDPIPE_ASSIGN_OR_RETURN(auto counts, in->ReadPairs("scaler.column_counts"));
  FlatKeyMap<Moments> stats;
  for (size_t i = 0; i < keys.size(); ++i) {
    stats[keys[i]] = Moments{sums[i], sum_squares[i]};
  }
  FlatKeyMap<int64_t> column_counts;
  for (const auto& [key, count] : counts) {
    CDPIPE_ASSIGN_OR_RETURN(column_counts[key],
                            CountFromDouble(count, "scaler column count"));
  }
  total_rows_ = total_rows;
  table_mode_seen_ = table_mode != 0;
  stats_ = std::move(stats);
  column_counts_ = std::move(column_counts);
  stats_serial_ = fusion::NextStatsSerial();
  return Status::OK();
}

}  // namespace cdpipe
