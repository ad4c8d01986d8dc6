#include "src/pipeline/pipeline.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/string_util.h"
#include "src/engine/execution_engine.h"
#include "src/obs/decision.h"

namespace cdpipe {
namespace {

/// Rows per transform shard / maximum shard fan-out for the parallel pure
/// path.  As with the gradient shards in linear_model.cc, the shard count
/// is a function of the row count ONLY (never the worker count) and shard
/// outputs are concatenated in ascending shard order, so serial and
/// parallel runs produce bit-identical features.
constexpr size_t kMinRowsPerTransformShard = 256;
constexpr size_t kMaxTransformShards = 64;

size_t NumTransformShards(size_t rows) {
  return std::clamp(rows / kMinRowsPerTransformShard, size_t{1},
                    kMaxTransformShards);
}

struct ShardOutput {
  FeatureData features;
  size_t scanned = 0;
};

/// Fixed-order merge: concatenates shard outputs in ascending shard order.
Result<FeatureData> MergeShardOutputs(std::vector<ShardOutput> shards,
                                      size_t* rows_scanned) {
  FeatureData merged;
  merged.dim = shards.empty() ? 0 : shards[0].features.dim;
  size_t total = 0;
  for (const ShardOutput& s : shards) total += s.features.num_rows();
  merged.features.reserve(total);
  merged.labels.reserve(total);
  for (ShardOutput& s : shards) {
    if (s.features.dim != merged.dim) {
      return Status::Internal("transform shards disagree on feature dim");
    }
    std::move(s.features.features.begin(), s.features.features.end(),
              std::back_inserter(merged.features));
    merged.labels.insert(merged.labels.end(), s.features.labels.begin(),
                         s.features.labels.end());
    if (rows_scanned != nullptr) *rows_scanned += s.scanned;
  }
  return merged;
}

}  // namespace

Status Pipeline::AddComponent(std::unique_ptr<PipelineComponent> component) {
  if (component == nullptr) {
    return Status::InvalidArgument("component must not be null");
  }
  components_.push_back(std::move(component));
  AdvanceStateVersion();
  // Structure changed: the compiled plan is for a different pipeline.
  std::lock_guard<std::mutex> lock(plan_mu_);
  plan_.reset();
  return Status::OK();
}

Result<std::shared_ptr<const fusion::FusedPlan>> Pipeline::Plan() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  if (plan_ == nullptr) {
    std::vector<PipelineComponent*> chain;
    chain.reserve(components_.size());
    for (const auto& component : components_) chain.push_back(component.get());
    CDPIPE_ASSIGN_OR_RETURN(plan_, fusion::FusedPlan::Compile(chain));
    ++plan_compiles_;
    obs::Record(obs::Decision::kPlanCompile,
                StrFormat("stages=%zu elided=%zu", plan_->stats().stages,
                          plan_->stats().compile_elided));
  }
  return plan_;
}

Result<FeatureData> Pipeline::ExecuteSerial(const fusion::FusedPlan& plan,
                                            const RawChunk& chunk,
                                            size_t* rows_scanned,
                                            bool update) const {
  FeatureData out;
  fusion::ScratchLease lease(scratch_pool_.get());
  CDPIPE_RETURN_NOT_OK(plan.Execute(chunk.records, 0, chunk.records.size(),
                                    lease.get(), &out, rows_scanned, update));
  return out;
}

Result<FeatureData> Pipeline::UpdateAndTransform(const RawChunk& chunk,
                                                 size_t* rows_scanned) {
  // Advance the version before the first statistic moves.
  AdvanceStateVersion();
  CDPIPE_ASSIGN_OR_RETURN(std::shared_ptr<const fusion::FusedPlan> plan,
                          Plan());
  // One block: every update kernel must see the whole chunk before the
  // transform kernel after it runs, so the online path never shards.
  return ExecuteSerial(*plan, chunk, rows_scanned, /*update=*/true);
}

Result<FeatureData> Pipeline::Transform(const RawChunk& chunk,
                                        ExecutionEngine* engine,
                                        size_t* rows_scanned) const {
  CDPIPE_ASSIGN_OR_RETURN(std::shared_ptr<const fusion::FusedPlan> plan,
                          Plan());
  const size_t rows = chunk.records.size();
  const size_t num_shards = NumTransformShards(rows);
  if (engine == nullptr || engine->num_threads() <= 1 || num_shards <= 1) {
    return ExecuteSerial(*plan, chunk, rows_scanned, /*update=*/false);
  }
  // Shard boundaries depend on the row count only: the first `remainder`
  // shards take one extra row.
  const size_t base = rows / num_shards;
  const size_t remainder = rows % num_shards;
  std::vector<ShardOutput> shards(num_shards);
  CDPIPE_RETURN_NOT_OK(
      engine->ParallelFor(num_shards, [&](size_t s) -> Status {
        const size_t begin = s * base + std::min(s, remainder);
        const size_t end = begin + base + (s < remainder ? 1 : 0);
        ShardOutput& out = shards[s];
        out.scanned = 0;  // overwritten wholesale: the task is
        out.features = FeatureData{};  // retry-idempotent
        fusion::ScratchLease lease(scratch_pool_.get());
        return plan->Execute(chunk.records, begin, end, lease.get(),
                             &out.features, &out.scanned);
      }));
  return MergeShardOutputs(std::move(shards), rows_scanned);
}

Result<FeatureData> Pipeline::TransformRecomputingStatistics(
    const RawChunk& chunk, size_t* rows_scanned) const {
  // Without online statistics computation the platform rescans the chunk
  // to rebuild each stateful component's statistics before transforming.
  // The plan is bound to fresh clones of the stateful components (the
  // deployed statistics stay untouched) and to the deployed stateless ones
  // (their dropped / malformed counters keep counting), then run online.
  std::vector<std::unique_ptr<PipelineComponent>> scratch;
  std::vector<PipelineComponent*> bound;
  bound.reserve(components_.size());
  for (const auto& component : components_) {
    if (component->is_stateful()) {
      scratch.push_back(component->Clone());
      scratch.back()->Reset();
      bound.push_back(scratch.back().get());
    } else {
      bound.push_back(component.get());
    }
  }
  CDPIPE_ASSIGN_OR_RETURN(std::shared_ptr<const fusion::FusedPlan> plan,
                          fusion::FusedPlan::Compile(bound));
  return ExecuteSerial(*plan, chunk, rows_scanned, /*update=*/true);
}

std::unique_ptr<Pipeline> Pipeline::Clone() const {
  auto out = std::make_unique<Pipeline>();
  for (const auto& component : components_) {
    out->components_.push_back(component->Clone());
  }
  out->scratch_pool_ = scratch_pool_;
  return out;
}

Status Pipeline::SaveState(Serializer* out) const {
  out->WriteInt("pipeline.num_components",
                static_cast<int64_t>(components_.size()));
  for (const auto& component : components_) {
    out->WriteString("pipeline.component", component->name());
    CDPIPE_RETURN_NOT_OK(component->SaveState(out));
  }
  return Status::OK();
}

Status Pipeline::LoadState(Deserializer* in) {
  // Advance the version before any component statistic is replaced (a
  // partially applied load must not pass for the previous state either).
  AdvanceStateVersion();
  CDPIPE_ASSIGN_OR_RETURN(int64_t count,
                          in->ReadInt("pipeline.num_components"));
  if (count != static_cast<int64_t>(components_.size())) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) +
        " components, pipeline has " + std::to_string(components_.size()));
  }
  for (const auto& component : components_) {
    CDPIPE_ASSIGN_OR_RETURN(std::string name,
                            in->ReadString("pipeline.component"));
    if (name != component->name()) {
      return Status::InvalidArgument("checkpoint component '" + name +
                                     "' does not match pipeline component '" +
                                     component->name() + "'");
    }
    CDPIPE_RETURN_NOT_OK(component->LoadState(in));
  }
  return Status::OK();
}

std::string Pipeline::ToString() const {
  std::string out = "Pipeline[";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += " -> ";
    out += components_[i]->name();
  }
  out += "]";
  return out;
}

}  // namespace cdpipe
