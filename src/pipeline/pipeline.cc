#include "src/pipeline/pipeline.h"

#include <utility>

#include "src/common/string_util.h"
#include "src/obs/decision.h"

namespace cdpipe {
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

Result<FeatureData> Pipeline::Execute(const fusion::FusedPlan& plan,
                                      const RawChunk& chunk,
                                      size_t* rows_scanned, bool update) const {
  FeatureData out;
  fusion::ScratchLease lease(scratch_pool_.get());
  CDPIPE_RETURN_NOT_OK(
      plan.Execute(chunk.records, lease.get(), &out, rows_scanned, update));
  return out;
}

Result<FeatureData> Pipeline::UpdateAndTransform(const RawChunk& chunk,
                                                 size_t* rows_scanned) {
  // Advance the version before the first statistic moves.
  AdvanceStateVersion();
  CDPIPE_ASSIGN_OR_RETURN(std::shared_ptr<const fusion::FusedPlan> plan,
                          Plan());
  // One block: every update kernel sees the whole chunk before the
  // transform kernel after it runs.
  return Execute(*plan, chunk, rows_scanned, /*update=*/true);
}

Result<FeatureData> Pipeline::Transform(const RawChunk& chunk,
                                        size_t* rows_scanned) const {
  CDPIPE_ASSIGN_OR_RETURN(std::shared_ptr<const fusion::FusedPlan> plan,
                          Plan());
  return Execute(*plan, chunk, rows_scanned, /*update=*/false);
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
  return Execute(*plan, chunk, rows_scanned, /*update=*/true);
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
