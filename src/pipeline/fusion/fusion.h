#ifndef CDPIPE_PIPELINE_FUSION_FUSION_H_
#define CDPIPE_PIPELINE_FUSION_FUSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/dataframe/schema.h"

namespace cdpipe {

class PipelineComponent;

namespace obs {
class Histogram;
}  // namespace obs

/// Pipeline "compiler": the one execution path of every transform.
///
/// Given a deployed pipeline and the schema of the chunks it will see, the
/// planner asks every component to contribute its *block kernels* to a
/// FusedPlan: a short, pre-resolved program that takes a range of raw
/// records straight to FeatureData without materializing anything between
/// components.  Column dispatch (schema lookups, column type resolution)
/// happens once at compile time instead of once per chunk per component;
/// per-block state lives in reusable per-thread scratch buffers.
///
/// Each component contributes a transform kernel, and each stateful
/// component also an *update kernel* that folds the stage's input block
/// into its statistics.  Update kernels run only on the online path
/// (`Execute(..., update=true)`), immediately before the component's
/// transform kernel, so the transform sees the statistics including the
/// current block — the paper's online statistics computation (§3.1).
/// Transform kernels read statistics when their block starts, never at
/// compile time, so one plan per (entry schema, pipeline structure) serves
/// the online path, re-materialization and serving alike.
///
/// Compilation is all-or-nothing and its errors are the pipeline's errors:
/// a misconfigured component (unknown or non-numeric column, a kernel
/// placed where its input representation does not exist) or a chain that
/// does not end vectorized fails the transform with that status.
namespace fusion {

class PlanBuilder;

/// Order-sensitive fingerprint of (field name, field type) pairs — the plan
/// cache key that captures "what shape of chunk does this plan expect".
/// FNV-1a, stable across processes.
uint64_t SchemaFingerprint(const Schema& schema);

/// A fresh process-unique statistics serial.  Components whose kernels
/// memoize statistics-derived values take a new serial on every statistics
/// change (update, reset, restore, clone); memos key on it, so a serial
/// can never name two different statistics states.
uint64_t NextStatsSerial();

// ---------------------------------------------------------------------------
// Execution-time block state (lives in per-thread ExecScratch, reused
// across blocks and chunks; nothing here is shared between threads).
// ---------------------------------------------------------------------------

/// One column of a table block: flat typed storage plus a per-row null
/// byte mask.  String cells borrow the raw records, which outlive the
/// Transform call.
struct BlockColumn {
  ValueType type = ValueType::kNull;
  std::vector<double> d;
  std::vector<int64_t> i;
  std::vector<std::string_view> s;
  /// Parallel to rows; consulted only when `any_null`.
  std::vector<uint8_t> null;
  bool any_null = false;

  void Reset(ValueType t) {
    type = t;
    d.clear();
    i.clear();
    s.clear();
    null.clear();
    any_null = false;
  }

  bool IsNull(size_t r) const { return any_null && null[r] != 0; }

  /// Numeric cell, integers widened with a static_cast.
  double NumericAt(size_t r) const {
    return type == ValueType::kDouble ? d[r] : static_cast<double>(i[r]);
  }

  /// Widens an integer/timestamp column to double in place (all rows
  /// convert, null placeholders included).
  void PromoteToDouble() {
    if (type == ValueType::kDouble) return;
    d.resize(i.size());
    for (size_t r = 0; r < i.size(); ++r) d[r] = static_cast<double>(i[r]);
    type = ValueType::kDouble;
  }
};

/// Table-state block: columns in plan-assigned physical slots plus a keep
/// mask.  Filters mark rows dead instead of materializing a filtered copy;
/// every later kernel reads live rows only, in ascending row order.
struct TableBlock {
  size_t num_rows = 0;
  size_t live_rows = 0;
  std::vector<BlockColumn> cols;
  std::vector<uint8_t> keep;
};

/// Vector-state block: all rows' sparse entries concatenated, each row's
/// range collapsed (sorted, duplicate indices pre-summed — the exact
/// SparseVector::SortAndCombineInto preprocessing).
struct VecBlock {
  uint32_t dim = 0;
  std::vector<std::pair<uint32_t, double>> entries;
  /// Exclusive end offset of each row's entries.
  std::vector<uint32_t> row_end;
  std::vector<double> labels;
  /// True when any entry value is NaN — lets the imputer stage skip the
  /// whole block when there is nothing to fill.
  bool saw_nan = false;
  /// Rows whose entries contain at least one NaN (ascending; meaningful
  /// only while `saw_nan` is set).  The imputer rescans just these rows
  /// instead of the whole block.
  std::vector<uint32_t> nan_rows;

  size_t num_rows() const { return row_end.size(); }
};

/// Hash memo persisted across blocks, chunks, and plans: the bucket/sign
/// of a raw feature index depends only on the hasher's immutable config,
/// so the lazily filled array stays valid for the lifetime of the scratch.
/// One packed word per raw index — set flag, sign flag, bucket — so a
/// lookup costs a single cache line, not three (the memo is far larger
/// than L1/L2 and lookups are random).
struct HasherMemo {
  static constexpr uint64_t kSet = uint64_t{1} << 63;
  static constexpr uint64_t kNegative = uint64_t{1} << 62;

  uint64_t seed = 0;
  uint32_t bits = 0;
  bool signed_hash = false;
  uint32_t dim = 0;
  std::vector<uint64_t> packed;

  bool Matches(uint64_t s, uint32_t b, bool sgn, uint32_t d) const {
    return !packed.empty() && seed == s && bits == b && signed_hash == sgn &&
           dim == d;
  }
};

/// Lazily filled memo of statistics-derived values (the scaler's σ and
/// mean per key), valid for one statistics serial (NextStatsSerial).  On
/// the online path statistics move every chunk, so rebinding to a new
/// serial resets only the cells filled since the last bind — O(keys
/// touched), never O(dim).
struct StatsMemo {
  /// Marks an unfilled σ cell (σ is never negative).
  static constexpr double kUnfilled = -1.0;

  uint64_t serial = 0;
  std::vector<double> sd;
  /// Parallel to `sd`, sized only for scalers that subtract the mean.
  std::vector<double> mean;
  /// Keys filled under `serial`.
  std::vector<uint32_t> filled;

  /// Makes every cell read as unfilled unless it was filled under
  /// `new_serial` over the same `dim`.
  void Bind(uint64_t new_serial, size_t dim) {
    if (sd.size() != dim) {
      sd.assign(dim, kUnfilled);
      filled.clear();
    } else if (serial != new_serial) {
      for (const uint32_t key : filled) sd[key] = kUnfilled;
      filled.clear();
    }
    serial = new_serial;
  }
};

/// Per-thread execution scratch.  Acquired from a ScratchPool for the
/// duration of one block; buffers keep their capacity between blocks.
struct ExecScratch {
  VecBlock vec;
  TableBlock table;
  HasherMemo hasher_memo;
  StatsMemo scaler_memo;
  // Reusable small buffers for per-row work.
  std::vector<std::string_view> tokens;
  std::vector<std::pair<uint32_t, double>> row_entries;
  std::vector<std::pair<uint32_t, double>> out_entries;
  std::vector<double> acc;
  std::vector<uint64_t> occupied;
  std::vector<uint64_t> summary;
  /// Buckets that received a two-way collision in the current row (the
  /// hasher's dense path sums pairs in place; a third hit forces the
  /// sorted fallback).
  std::vector<uint32_t> collided;
};

/// Everything a stage needs while processing one block.
struct ExecContext {
  const std::vector<std::string>* records = nullptr;
  size_t begin = 0;
  size_t end = 0;
  ExecScratch* scratch = nullptr;
  FeatureData* out = nullptr;
  /// (row x component) scans: every kernel, update or transform, counts
  /// the rows it reads, so the online path scans stateful stages twice.
  size_t rows_scanned = 0;
  /// Stages that did provably no per-row work on this block.
  size_t stages_elided = 0;

  size_t raw_rows() const { return end - begin; }
};

/// One compiled kernel.  Immutable after compile; Run mutates the
/// per-thread state reachable through `ctx` and, for update kernels only,
/// the owning component's statistics.
class FusedStage {
 public:
  virtual ~FusedStage() = default;
  virtual const char* label() const = 0;
  virtual Status Run(ExecContext& ctx) const = 0;
};

/// A stage whose Run is a callable — for kernels simplest written in place,
/// such as update kernels that fold a block into their component's private
/// statistics.
template <typename Fn>
class FnStage final : public FusedStage {
 public:
  FnStage(const char* label, Fn fn) : label_(label), fn_(std::move(fn)) {}
  const char* label() const override { return label_; }
  Status Run(ExecContext& ctx) const override { return fn_(ctx); }

 private:
  const char* label_;
  Fn fn_;
};

template <typename Fn>
std::unique_ptr<FusedStage> MakeStage(const char* label, Fn fn) {
  return std::make_unique<FnStage<Fn>>(label, std::move(fn));
}

// ---------------------------------------------------------------------------
// Compile-time planning
// ---------------------------------------------------------------------------

/// Builder each component's Fuse() contributes to.  Tracks the simulated
/// batch representation (raw records -> table -> vector) and the logical
/// schema, so downstream components resolve columns at compile time.
class PlanBuilder {
 public:
  enum class Repr { kRaw, kTable, kVec };

  explicit PlanBuilder(const Schema& entry_schema)
      : entry_schema_(&entry_schema) {}

  Repr repr() const { return repr_; }
  const Schema& entry_schema() const { return *entry_schema_; }

  // --- table state ---
  /// Logical schema of the simulated table (valid when repr()==kTable).
  const Schema& schema() const { return *schema_; }
  /// Physical slot of a logical field, or NotFound.
  Result<size_t> SlotOf(const std::string& field) const;
  ValueType SlotDeclaredType(size_t slot) const { return slot_types_[slot]; }
  /// Appends a field to the logical schema, returning its new slot.
  Result<size_t> AddSlot(const Field& field);
  /// Reorders/restricts the logical schema to `fields` (column projection).
  /// Physical slots are untouched — projection is free at runtime.
  Status Project(const std::vector<std::string>& fields);
  size_t num_slots() const { return slot_types_.size(); }

  // --- representation transitions ---
  Status BeginTable(std::shared_ptr<const Schema> schema);
  void BeginVec(uint32_t dim);
  uint32_t vec_dim() const { return vec_dim_; }

  /// Appends a transform kernel (runs on every path).
  void AddStage(std::unique_ptr<FusedStage> stage);
  /// Appends an update kernel: runs on the online path only, and must come
  /// before the transform kernel of the same component.
  void AddUpdateStage(std::unique_ptr<FusedStage> stage);
  /// Accounting-only stage: counts its scan and one elision per block, does
  /// no per-row work.  Used for provably no-op components (projections,
  /// imputers with nothing configured).
  void AddElidedStage(const char* label);

 private:
  friend class FusedPlan;

  struct Stage {
    std::unique_ptr<FusedStage> kernel;
    bool update = false;
  };

  const Schema* entry_schema_;
  Repr repr_ = Repr::kRaw;
  std::shared_ptr<const Schema> schema_;
  /// Logical field index -> physical slot.
  std::vector<size_t> slot_of_field_;
  /// Physical slot -> declared type (as produced by the parser / deriver;
  /// runtime promotions are tracked per block in BlockColumn::type).
  std::vector<ValueType> slot_types_;
  uint32_t vec_dim_ = 0;
  std::vector<Stage> stages_;
  size_t compile_elided_ = 0;
};

/// A compiled, immutable execution plan for one pipeline structure and one
/// entry schema.  The plan borrows the components it was compiled from.
class FusedPlan {
 public:
  struct Stats {
    uint64_t fingerprint = 0;
    size_t stages = 0;
    size_t compile_elided = 0;
  };

  /// Compiles `components` against `entry_schema`.  The components must
  /// outlive the plan.  Fails with the offending component's status, or
  /// FailedPrecondition when the chain does not end vectorized.
  static Result<std::shared_ptr<const FusedPlan>> Compile(
      const std::vector<PipelineComponent*>& components,
      const Schema& entry_schema);

  /// Processes records [begin, end) through every stage into `*out`.
  /// `update` selects the online path: update kernels run too, mutating
  /// component statistics, so such a call must be exclusive with every
  /// other Execute on the same components.  Transform-only calls may run
  /// concurrently.  `scratch` must be exclusively owned by the caller.
  /// Each component's kernels are timed into
  /// pipeline.component.<name>.transform_seconds and traced as one span.
  Status Execute(const std::vector<std::string>& records, size_t begin,
                 size_t end, ExecScratch* scratch, FeatureData* out,
                 size_t* rows_scanned, bool update = false) const;

  const Stats& stats() const { return stats_; }

  std::string ToString() const;

 private:
  /// The stages of one component, [previous segment's end, end).
  struct Segment {
    std::string name;
    obs::Histogram* histogram;
    size_t end;
  };

  FusedPlan() = default;

  std::vector<PlanBuilder::Stage> stages_;
  std::vector<Segment> segments_;
  Stats stats_;
};

/// Free list of ExecScratch buffers shared by the (few) concurrent
/// transform shards of one pipeline.
class ScratchPool {
 public:
  std::unique_ptr<ExecScratch> Acquire();
  void Release(std::unique_ptr<ExecScratch> scratch);

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ExecScratch>> free_;
};

/// RAII lease on a pool scratch.
class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool* pool)
      : pool_(pool), scratch_(pool->Acquire()) {}
  ~ScratchLease() { pool_->Release(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  ExecScratch* get() { return scratch_.get(); }

 private:
  ScratchPool* pool_;
  std::unique_ptr<ExecScratch> scratch_;
};

/// Plan cache keyed by entry-schema fingerprint.  Plans do not depend on
/// statistics, so an entry stays valid until the pipeline's structure
/// changes (the owner then calls Clear).  Compile failures are returned,
/// not cached.  Thread-safe: Transform runs concurrently on engine workers.
class PlanCache {
 public:
  /// The cached plan for `entry_schema`, compiling on a miss.
  Result<std::shared_ptr<const FusedPlan>> GetOrCompile(
      const std::vector<std::unique_ptr<PipelineComponent>>& components,
      const Schema& entry_schema);

  void Clear();

  // Introspection (tests / reports); process-wide counterparts live in the
  // metrics registry as pipeline.plan_cache_hits / _misses /
  // pipeline.fused_plans.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t compiles() const {
    return compiles_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const FusedPlan>> entries_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> compiles_{0};
};

/// Adds `n` to the process-wide pipeline.stages_elided counter (called once
/// per executed block, not per stage).
void CountStagesElided(size_t n);

}  // namespace fusion
}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_FUSION_FUSION_H_
