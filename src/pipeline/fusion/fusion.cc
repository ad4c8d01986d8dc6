#include "src/pipeline/fusion/fusion.h"

#include <utility>

#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/obs/event_journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/component.h"

namespace cdpipe {
namespace fusion {

uint64_t SchemaFingerprint(const Schema& schema) {
  // FNV-1a over (name bytes, 0, type byte, 0) per field, in order.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const Field& field : schema.fields()) {
    for (char c : field.name) mix(static_cast<uint8_t>(c));
    mix(0);
    mix(static_cast<uint8_t>(field.type));
    mix(0);
  }
  return h;
}

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
  ElidedStage(const char* label, PlanBuilder::Repr repr)
      : label_(label), repr_(repr) {}

  const char* label() const override { return label_; }

  Status Run(ExecContext& ctx) const override {
    ctx.rows_scanned += repr_ == PlanBuilder::Repr::kTable
                            ? ctx.scratch->table.live_rows
                            : ctx.scratch->vec.num_rows();
    ++ctx.stages_elided;
    return Status::OK();
  }

 private:
  const char* label_;
  PlanBuilder::Repr repr_;
};

/// Terminal stage: materializes the vector block as FeatureData.  Entries
/// are already collapsed per row (strictly increasing indices — the
/// VecBlock invariant every upstream kernel maintains), so each row's
/// parallel arrays are filled with tight copy loops and adopted via
/// FromSortedUnchecked; debug builds re-assert the invariant there.
class EmitVecStage final : public FusedStage {
 public:
  const char* label() const override { return "emit_features"; }

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

void PlanBuilder::AddElidedStage(const char* label) {
  AddStage(std::make_unique<ElidedStage>(label, repr_));
  ++compile_elided_;
}

// ---------------------------------------------------------------------------
// FusedPlan
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const FusedPlan>> FusedPlan::Compile(
    const std::vector<PipelineComponent*>& components,
    const Schema& entry_schema) {
  PlanBuilder builder(entry_schema);
  auto plan = std::shared_ptr<FusedPlan>(new FusedPlan());
  std::string chain;
  for (PipelineComponent* component : components) {
    CDPIPE_RETURN_NOT_OK(component->Fuse(&builder));
    const std::string name = component->name();
    chain += (chain.empty() ? "" : " -> ") + name;
    plan->segments_.push_back(Segment{
        name,
        obs::MetricsRegistry::Global().GetHistogram(
            "pipeline.component." + name + ".transform_seconds"),
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
  plan->stats_.fingerprint = SchemaFingerprint(entry_schema);
  plan->stats_.stages = plan->stages_.size();
  plan->stats_.compile_elided = builder.compile_elided_;
  return std::shared_ptr<const FusedPlan>(std::move(plan));
}

Status FusedPlan::Execute(const std::vector<std::string>& records,
                          size_t begin, size_t end, ExecScratch* scratch,
                          FeatureData* out, size_t* rows_scanned,
                          bool update) const {
  ExecContext ctx;
  ctx.records = &records;
  ctx.begin = begin;
  ctx.end = end;
  ctx.scratch = scratch;
  ctx.out = out;
  size_t s = 0;
  Stopwatch watch;
  for (const Segment& segment : segments_) {
    {
      CDPIPE_TRACE_SPAN(segment.name.c_str(), "pipeline");
      for (; s < segment.end; ++s) {
        if (stages_[s].update && !update) continue;
        CDPIPE_RETURN_NOT_OK(stages_[s].kernel->Run(ctx));
      }
    }
    segment.histogram->Observe(watch.Lap());
  }
  for (; s < stages_.size(); ++s) {
    CDPIPE_RETURN_NOT_OK(stages_[s].kernel->Run(ctx));
  }
  CDPIPE_RETURN_NOT_OK(out->Validate());
  if (rows_scanned != nullptr) *rows_scanned += ctx.rows_scanned;
  if (ctx.stages_elided > 0) CountStagesElided(ctx.stages_elided);
  return Status::OK();
}

std::string FusedPlan::ToString() const {
  std::string out = StrFormat("FusedPlan[fp=%016llx]{",
                              static_cast<unsigned long long>(
                                  stats_.fingerprint));
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += " -> ";
    out += stages_[i].kernel->label();
  }
  out += "}";
  return out;
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

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const FusedPlan>> PlanCache::GetOrCompile(
    const std::vector<std::unique_ptr<PipelineComponent>>& components,
    const Schema& entry_schema) {
  static obs::Counter* hit_counter = obs::MetricsRegistry::Global().GetCounter(
      "pipeline.plan_cache_hits", "Fused-plan cache hits");
  static obs::Counter* miss_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "pipeline.plan_cache_misses",
          "Fused-plan cache misses (first use or structure change)");
  static obs::Counter* plan_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "pipeline.fused_plans", "Fused plans compiled");

  const uint64_t fingerprint = SchemaFingerprint(entry_schema);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter->Increment();
      return it->second;
    }
  }
  // Compile outside the lock: compilation only reads component
  // configuration.  A concurrent duplicate compile is benign — last writer
  // wins with an identical plan.
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_counter->Increment();
  std::vector<PipelineComponent*> chain;
  chain.reserve(components.size());
  for (const auto& component : components) chain.push_back(component.get());
  CDPIPE_ASSIGN_OR_RETURN(std::shared_ptr<const FusedPlan> plan,
                          FusedPlan::Compile(chain, entry_schema));
  compiles_.fetch_add(1, std::memory_order_relaxed);
  plan_counter->Increment();
  obs::EventJournal::Global().Append(
      obs::EventKind::kPlanCompile,
      StrFormat("fp=%016llx stages=%zu elided=%zu",
                static_cast<unsigned long long>(plan->stats().fingerprint),
                plan->stats().stages, plan->stats().compile_elided)
          .c_str());
  std::lock_guard<std::mutex> lock(mu_);
  entries_[fingerprint] = plan;
  return plan;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace fusion
}  // namespace cdpipe
