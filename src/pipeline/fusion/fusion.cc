#include "src/pipeline/fusion/fusion.h"

#include <atomic>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/component.h"

namespace cdpipe {
namespace fusion {

uint64_t NextStatsSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void CountStagesElided(size_t n) {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "pipeline.stages_elided",
      "Fused-plan stages skipped as provably no-op (per block)");
  counter->Add(static_cast<int64_t>(n));
}

namespace {

/// Accounting stand-in for a component whose work was elided at compile
/// time: counts the rows the component would have scanned and one elision
/// per block, but touches no data.
class ElidedStage final : public FusedStage {
 public:
  explicit ElidedStage(PlanBuilder::Repr repr) : repr_(repr) {}

  Status Run(ExecContext& ctx) const override {
    ctx.rows_scanned += repr_ == PlanBuilder::Repr::kTable
                            ? ctx.scratch->table.live_rows
                            : ctx.scratch->vec.num_rows();
    ++ctx.stages_elided;
    return Status::OK();
  }

 private:
  PlanBuilder::Repr repr_;
};

/// Terminal stage: materializes the vector block as FeatureData.  Entries
/// are already collapsed per row (strictly increasing indices — the
/// VecBlock invariant every upstream kernel maintains), so each row's
/// parallel arrays are filled with tight copy loops and adopted via
/// FromSortedUnchecked; debug builds re-assert the invariant there.
class EmitVecStage final : public FusedStage {
 public:
  Status Run(ExecContext& ctx) const override {
    const VecBlock& vec = ctx.scratch->vec;
    FeatureData& out = *ctx.out;
    out.dim = vec.dim;
    out.features.clear();
    out.features.reserve(vec.num_rows());
    uint32_t start = 0;
    for (size_t r = 0; r < vec.num_rows(); ++r) {
      const uint32_t stop = vec.row_end[r];
      const size_t n = stop - start;
      std::vector<uint32_t> indices(n);
      std::vector<double> values(n);
      for (size_t k = 0; k < n; ++k) {
        indices[k] = vec.entries[start + k].first;
        values[k] = vec.entries[start + k].second;
      }
      out.features.push_back(SparseVector::FromSortedUnchecked(
          vec.dim, std::move(indices), std::move(values)));
      start = stop;
    }
    out.labels = vec.labels;
    return Status::OK();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// PlanBuilder
// ---------------------------------------------------------------------------

Result<size_t> PlanBuilder::SlotOf(const std::string& field) const {
  if (repr_ != Repr::kTable) {
    return Status::FailedPrecondition("no table in scope at this stage");
  }
  CDPIPE_ASSIGN_OR_RETURN(size_t logical, schema_->FieldIndex(field));
  return slot_of_field_[logical];
}

Result<size_t> PlanBuilder::AddSlot(const Field& field) {
  if (repr_ != Repr::kTable) {
    return Status::FailedPrecondition("no table in scope at this stage");
  }
  CDPIPE_ASSIGN_OR_RETURN(schema_, schema_->AddField(field));
  const size_t slot = slot_types_.size();
  slot_of_field_.push_back(slot);
  slot_types_.push_back(field.type);
  return slot;
}

Status PlanBuilder::Project(const std::vector<std::string>& fields) {
  if (repr_ != Repr::kTable) {
    return Status::FailedPrecondition("no table in scope at this stage");
  }
  std::vector<Field> new_fields;
  std::vector<size_t> new_slots;
  new_fields.reserve(fields.size());
  new_slots.reserve(fields.size());
  for (const std::string& name : fields) {
    CDPIPE_ASSIGN_OR_RETURN(size_t logical, schema_->FieldIndex(name));
    new_fields.push_back(schema_->field(logical));
    new_slots.push_back(slot_of_field_[logical]);
  }
  CDPIPE_ASSIGN_OR_RETURN(schema_, Schema::Make(std::move(new_fields)));
  slot_of_field_ = std::move(new_slots);
  return Status::OK();
}

Status PlanBuilder::BeginTable(std::shared_ptr<const Schema> schema) {
  if (repr_ != Repr::kRaw) {
    return Status::FailedPrecondition("table entry requires raw records");
  }
  schema_ = std::move(schema);
  slot_of_field_.resize(schema_->num_fields());
  slot_types_.resize(schema_->num_fields());
  for (size_t i = 0; i < schema_->num_fields(); ++i) {
    slot_of_field_[i] = i;
    slot_types_[i] = schema_->field(i).type;
  }
  repr_ = Repr::kTable;
  return Status::OK();
}

void PlanBuilder::BeginVec(uint32_t dim) {
  vec_dim_ = dim;
  repr_ = Repr::kVec;
}

void PlanBuilder::AddStage(std::unique_ptr<FusedStage> stage) {
  stages_.push_back(Stage{std::move(stage), /*update=*/false});
}

void PlanBuilder::AddUpdateStage(std::unique_ptr<FusedStage> stage) {
  stages_.push_back(Stage{std::move(stage), /*update=*/true});
}

void PlanBuilder::AddElidedStage() {
  AddStage(std::make_unique<ElidedStage>(repr_));
  ++compile_elided_;
}

// ---------------------------------------------------------------------------
// FusedPlan
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const FusedPlan>> FusedPlan::Compile(
    const std::vector<PipelineComponent*>& components) {
  PlanBuilder builder;
  auto plan = std::shared_ptr<FusedPlan>(new FusedPlan());
  std::string chain;
  for (PipelineComponent* component : components) {
    CDPIPE_RETURN_NOT_OK(component->Fuse(&builder));
    const std::string name = component->name();
    chain += (chain.empty() ? "" : " -> ") + name;
    const std::string phase = "pipeline.component." + name;
    plan->segments_.push_back(Segment{
        phase,
        obs::MetricsRegistry::Global().GetHistogram(
            phase + ".transform_seconds"),
        builder.stages_.size()});
  }
  if (builder.repr() != PlanBuilder::Repr::kVec) {
    return Status::FailedPrecondition(
        "pipeline did not end in a vectorizing component (Pipeline[" + chain +
        "] produced a table batch); append a FeatureHasher, OneHotEncoder, "
        "or VectorAssembler");
  }
  builder.AddStage(std::make_unique<EmitVecStage>());
  plan->stages_ = std::move(builder.stages_);
  plan->stats_.stages = plan->stages_.size();
  plan->stats_.compile_elided = builder.compile_elided_;
  return std::shared_ptr<const FusedPlan>(std::move(plan));
}

Status FusedPlan::Execute(const std::vector<std::string>& records,
                          ExecScratch* scratch, FeatureData* out,
                          size_t* rows_scanned, bool update) const {
  ExecContext ctx;
  ctx.records = &records;
  ctx.scratch = scratch;
  ctx.out = out;
  size_t s = 0;
  for (const Segment& segment : segments_) {
    obs::Phase phase(segment.name.c_str(), segment.histogram);
    for (; s < segment.end; ++s) {
      if (stages_[s].update && !update) continue;
      CDPIPE_RETURN_NOT_OK(stages_[s].kernel->Run(ctx));
    }
  }
  for (; s < stages_.size(); ++s) {
    CDPIPE_RETURN_NOT_OK(stages_[s].kernel->Run(ctx));
  }
  CDPIPE_RETURN_NOT_OK(out->Validate());
  if (rows_scanned != nullptr) *rows_scanned += ctx.rows_scanned;
  if (ctx.stages_elided > 0) CountStagesElided(ctx.stages_elided);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ScratchPool
// ---------------------------------------------------------------------------

std::unique_ptr<ExecScratch> ScratchPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::unique_ptr<ExecScratch> scratch = std::move(free_.back());
      free_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<ExecScratch>();
}

void ScratchPool::Release(std::unique_ptr<ExecScratch> scratch) {
  if (scratch == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(scratch));
}

}  // namespace fusion
}  // namespace cdpipe
