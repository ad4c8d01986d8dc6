#include "src/ml/linear_model.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/engine/execution_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace {

/// Rows per gradient shard / maximum shard fan-out.  The shard count is a
/// function of the row count ONLY (never the worker count): per-shard
/// partials are merged in ascending shard order, which pins the
/// floating-point summation order regardless of how many threads execute
/// the shards — serial and parallel runs produce bit-identical gradients.
constexpr size_t kMinRowsPerGradShard = 256;
constexpr size_t kMaxGradShards = 64;

/// Rows between the gradient loop and its software prefetch.  A shuffled
/// epoch visits rows in random order over a history larger than the
/// caches, so every row would stall on its SparseVector header and then on
/// its entry arrays.  At row r the loop prefetches row r+2d's header and
/// row r+d's arrays (that header was prefetched d rows earlier), so both
/// misses overlap the arithmetic of the rows in between.
constexpr size_t kPrefetchRows = 8;

size_t NumGradShards(size_t rows) {
  return std::clamp(rows / kMinRowsPerGradShard, size_t{1}, kMaxGradShards);
}

/// Dense-scratch sparse accumulator: a dense sums array plus an occupancy
/// bitmap of one bit per coordinate in 64-bit words.  Add sets the
/// coordinate's bit and adds into its sum; Drain walks the nonzero words in
/// ascending order, emits each set coordinate with its sum, and zeroes every
/// sum and word it emits, so the scratch is empty again after every use.  A
/// set bit marks a coordinate present in the batch even when its partial sum
/// is 0.0 (zero-loss rows), because the lazy L2 term applies to all touched
/// coordinates.
///
/// One scratch per thread (see Scratch()), reused across mini-batches: a
/// use costs O(adds + dim / 64), with no allocation once the arrays have
/// grown to the widest dim seen.
class GradAccumulator {
 public:
  /// The calling thread's scratch, sized for `dim` and empty.  A use must
  /// Drain before the next Scratch call on the same thread; what a use
  /// interrupted by an exception left behind (ParallelForRange catches
  /// one thrown mid-shard) is cleared here.
  static GradAccumulator& Scratch(uint32_t dim) {
    thread_local GradAccumulator scratch;
    if (scratch.in_use_) {
      scratch.num_words_ = scratch.words_.size();
      scratch.Drain();
    }
    scratch.num_words_ = (size_t{dim} + 63) / 64;
    if (scratch.words_.size() < scratch.num_words_) {
      scratch.words_.resize(scratch.num_words_, 0);
      scratch.sums_.resize(scratch.num_words_ * 64, 0.0);
    }
    scratch.in_use_ = true;
    return scratch;
  }

  void Add(uint32_t index, double value) {
    words_[index >> 6] |= uint64_t{1} << (index & 63);
    sums_[index] += value;
  }

  /// Touched (index, partial-sum) entries in ascending index order.
  std::vector<GradEntry> Drain() {
    size_t touched = 0;
    for (size_t w = 0; w < num_words_; ++w) {
      touched += std::popcount(words_[w]);
    }
    std::vector<GradEntry> out;
    out.reserve(touched);
    for (size_t w = 0; w < num_words_; ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const uint32_t index =
            static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        out.push_back(GradEntry{index, sums_[index]});
        sums_[index] = 0.0;
      }
      words_[w] = 0;
    }
    in_use_ = false;
    return out;
  }

 private:
  std::vector<double> sums_;     ///< 0.0 wherever the bit is clear
  std::vector<uint64_t> words_;  ///< bit i % 64 of word i / 64: i touched
  size_t num_words_ = 0;         ///< words covering the current use's dim
  bool in_use_ = false;          ///< between Scratch() and Drain()
};

struct GradShard {
  std::vector<GradEntry> entries;  ///< sorted partial sums
  double bias_sum = 0.0;
};

struct ModelMetrics {
  obs::Gauge* grad_shard_count;
  obs::Histogram* grad_merge_seconds;

  static const ModelMetrics& Get() {
    static const ModelMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      ModelMetrics m;
      m.grad_shard_count = registry.GetGauge("model.grad_shard_count");
      m.grad_merge_seconds =
          registry.GetHistogram("model.grad_merge_seconds");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

LinearModel::LinearModel(Options options)
    : options_(options), weights_(options.initial_dim) {}

double LinearModel::Predict(const SparseVector& x) const {
  // Dimensions beyond the current weight vector have zero weight; guard so
  // prediction works before EnsureDim has seen the widest batch.
  double score = options_.fit_bias ? bias_ : 0.0;
  const auto& idx = x.indices();
  const auto& val = x.values();
  const size_t dim = weights_.dim();
  for (size_t k = 0; k < idx.size(); ++k) {
    if (idx[k] < dim) score += val[k] * weights_[idx[k]];
  }
  return score;
}

void LinearModel::PredictBatch(const FeatureData& features,
                               std::vector<double>* out) const {
  out->clear();
  out->reserve(features.features.size());
  for (const SparseVector& row : features.features) {
    out->push_back(Predict(row));
  }
}

void LinearModel::EnsureDim(uint32_t dim) {
  if (dim > weights_.dim()) weights_.Resize(dim);
}

Status LinearModel::ComputeGradient(const BatchView& batch,
                                    std::vector<GradEntry>* grad,
                                    double* bias_grad,
                                    ExecutionEngine* engine) const {
  grad->clear();
  *bias_grad = 0.0;
  const size_t rows = batch.num_rows();
  if (rows == 0) return Status::OK();
  if (batch.dim() > weights_.dim()) {
    return Status::FailedPrecondition(
        "batch dim " + std::to_string(batch.dim()) + " exceeds model dim " +
        std::to_string(weights_.dim()) + "; call EnsureDim first");
  }

  const size_t num_shards = NumGradShards(rows);
  const size_t shard_rows = (rows + num_shards - 1) / num_shards;
  std::vector<GradShard> shards(num_shards);
  auto run_shard = [&](size_t s) {
    const size_t begin = s * shard_rows;
    const size_t end = std::min(begin + shard_rows, rows);
    GradAccumulator& accum = GradAccumulator::Scratch(batch.dim());
    double bias_sum = 0.0;
    for (size_t r = begin; r < end; ++r) {
      if (r + 2 * kPrefetchRows < rows) {
        __builtin_prefetch(&batch.feature(r + 2 * kPrefetchRows));
      }
      if (r + kPrefetchRows < rows) {
        const SparseVector& ahead = batch.feature(r + kPrefetchRows);
        __builtin_prefetch(ahead.indices().data());
        __builtin_prefetch(ahead.values().data());
      }
      const SparseVector& x = batch.feature(r);
      const LossGrad lg = EvalLoss(options_.loss, Predict(x), batch.label(r));
      const auto& idx = x.indices();
      const auto& val = x.values();
      for (size_t k = 0; k < idx.size(); ++k) {
        // Zero-loss examples still *touch* their coordinates so the lazy L2
        // term below applies to every coordinate present in the mini-batch.
        accum.Add(idx[k], lg.dloss_dpred * val[k]);
      }
      bias_sum += lg.dloss_dpred;
    }
    shards[s].entries = accum.Drain();
    shards[s].bias_sum = bias_sum;
  };
  if (engine != nullptr && engine->num_threads() > 1 && num_shards > 1) {
    CDPIPE_RETURN_NOT_OK(engine->ParallelForRange(
        num_shards, [&](size_t begin, size_t end) -> Status {
          for (size_t s = begin; s < end; ++s) run_shard(s);
          return Status::OK();
        }));
  } else {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  }
  const ModelMetrics& metrics = ModelMetrics::Get();
  metrics.grad_shard_count->Set(static_cast<double>(num_shards));

  // Deterministic merge: per-coordinate partials are summed in ascending
  // shard order, so the result does not depend on execution interleaving.
  // A single shard needs no merge pass (re-adding into zeroed scratch is
  // the identity), so its entries are taken as-is — same values bit for
  // bit — and only a real merge opens the ml.grad_merge phase.
  std::vector<GradEntry> merged_entries;
  double bias_accum = 0.0;
  if (num_shards == 1) {
    merged_entries = std::move(shards[0].entries);
    bias_accum = shards[0].bias_sum;
  } else {
    obs::Phase merge("ml.grad_merge", metrics.grad_merge_seconds);
    GradAccumulator& merged = GradAccumulator::Scratch(batch.dim());
    for (const GradShard& shard : shards) {
      for (const GradEntry& entry : shard.entries) {
        merged.Add(entry.index, entry.value);
      }
      bias_accum += shard.bias_sum;
    }
    merged_entries = merged.Drain();
  }
  const double inv_n = 1.0 / static_cast<double>(rows);
  grad->reserve(merged_entries.size());
  for (const GradEntry& entry : merged_entries) {
    double value = entry.value * inv_n;
    if (options_.l2_reg > 0.0) value += options_.l2_reg * weights_[entry.index];
    if (value != 0.0) grad->push_back(GradEntry{entry.index, value});
  }
  *bias_grad = options_.fit_bias ? bias_accum * inv_n : 0.0;
  return Status::OK();
}

void LinearModel::ApplyGradient(const std::vector<GradEntry>& grad,
                                double bias_grad, Optimizer* optimizer) {
  CDPIPE_CHECK(optimizer != nullptr);
  optimizer->Step(grad, options_.fit_bias ? bias_grad : 0.0, &weights_,
                  &bias_);
  if (!options_.fit_bias) bias_ = 0.0;
}

Status LinearModel::Update(const FeatureData& batch, Optimizer* optimizer) {
  if (batch.num_rows() == 0) return Status::OK();
  CDPIPE_ASSIGN_OR_RETURN(const std::vector<BatchView::RowRef> rows,
                          BatchView::CollectRows({&batch}, nullptr));
  return Update(BatchView(batch.dim, rows), optimizer);
}

Status LinearModel::Update(const BatchView& batch, Optimizer* optimizer,
                           ExecutionEngine* engine) {
  if (batch.empty()) return Status::OK();
  if (options_.fit_bias && options_.init_bias_to_label_mean &&
      !bias_initialized_) {
    double sum = 0.0;
    for (size_t r = 0; r < batch.num_rows(); ++r) sum += batch.label(r);
    bias_ = sum / static_cast<double>(batch.num_rows());
    bias_initialized_ = true;
  }
  EnsureDim(batch.dim());
  std::vector<GradEntry> grad;
  double bias_grad = 0.0;
  CDPIPE_RETURN_NOT_OK(ComputeGradient(batch, &grad, &bias_grad, engine));
  ApplyGradient(grad, bias_grad, optimizer);
  return Status::OK();
}

Status LinearModel::SaveState(Serializer* out) const {
  out->WriteString("model.loss", LossKindName(options_.loss));
  out->WriteDouble("model.l2_reg", options_.l2_reg);
  out->WriteInt("model.fit_bias", options_.fit_bias ? 1 : 0);
  out->WriteInt("model.bias_initialized", bias_initialized_ ? 1 : 0);
  out->WriteDouble("model.bias", bias_);
  out->WriteDoubleVector("model.weights", weights_.values());
  return Status::OK();
}

Status LinearModel::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(std::string loss, in->ReadString("model.loss"));
  if (loss != LossKindName(options_.loss)) {
    return Status::InvalidArgument("checkpoint loss '" + loss +
                                   "' does not match model loss '" +
                                   LossKindName(options_.loss) + "'");
  }
  CDPIPE_ASSIGN_OR_RETURN(options_.l2_reg, in->ReadDouble("model.l2_reg"));
  CDPIPE_ASSIGN_OR_RETURN(int64_t fit_bias, in->ReadInt("model.fit_bias"));
  options_.fit_bias = fit_bias != 0;
  CDPIPE_ASSIGN_OR_RETURN(int64_t bias_initialized,
                          in->ReadInt("model.bias_initialized"));
  bias_initialized_ = bias_initialized != 0;
  CDPIPE_ASSIGN_OR_RETURN(bias_, in->ReadDouble("model.bias"));
  CDPIPE_ASSIGN_OR_RETURN(std::vector<double> weights,
                          in->ReadDoubleVector("model.weights"));
  weights_ = DenseVector(std::move(weights));
  return Status::OK();
}

std::string LinearModel::ToString() const {
  return StrFormat("LinearModel(loss=%s, l2=%g, dim=%u, |w|=%.4f, b=%.4f)",
                   LossKindName(options_.loss), options_.l2_reg, dim(),
                   weights_.L2Norm(), bias_);
}

}  // namespace cdpipe
