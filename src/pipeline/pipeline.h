#ifndef CDPIPE_PIPELINE_PIPELINE_H_
#define CDPIPE_PIPELINE_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/pipeline/component.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

class ExecutionEngine;

/// An ordered sequence of pipeline components ending in a vectorizing stage,
/// i.e. the full preprocessing part of a deployed ML pipeline.  The model is
/// deliberately *not* part of this class — it is attached by the
/// PipelineManager so the platform can swap training strategies without
/// touching preprocessing.
///
/// The pipeline owns its components.  Statistics live inside the components;
/// the two entry points mirror the paper's two data paths, and both run the
/// same compiled block plan (src/pipeline/fusion/fusion.h):
///
///  - `UpdateAndTransform` — the online path for arriving training chunks:
///    every component first folds its input block into its statistics,
///    then transforms it (online statistics computation, §3.1).
///  - `Transform` — the pure path for prediction queries and for
///    re-materializing evicted feature chunks (§3.2): statistics are only
///    read, never written, so replayed historical data cannot skew them.
class Pipeline {
 public:
  Pipeline() = default;

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  // Manual moves: the statistics version is an atomic (non-movable); the
  // plan cache and scratch pool move by pointer.
  Pipeline(Pipeline&& other) noexcept
      : components_(std::move(other.components_)),
        state_version_(
            other.state_version_.load(std::memory_order_relaxed)),
        plan_cache_(std::move(other.plan_cache_)),
        scratch_pool_(std::move(other.scratch_pool_)) {}
  Pipeline& operator=(Pipeline&& other) noexcept {
    components_ = std::move(other.components_);
    state_version_.store(other.state_version_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    plan_cache_ = std::move(other.plan_cache_);
    scratch_pool_ = std::move(other.scratch_pool_);
    return *this;
  }

  /// Appends a component.  Fails with FailedPrecondition if the component is
  /// stateful but does not support online statistics computation (§3.1: the
  /// platform does not support such components).
  Status AddComponent(std::unique_ptr<PipelineComponent> component);

  size_t num_components() const { return components_.size(); }
  const PipelineComponent& component(size_t i) const { return *components_[i]; }

  /// Online path: every component's update kernel then transform kernel,
  /// over the whole chunk as one block.  Output is FeatureData (the
  /// pipeline must end in a vectorizing stage).  `rows_scanned`, when
  /// non-null, accumulates the number of (row × component) scans performed,
  /// for cost accounting: two per stateful component, one otherwise.
  Result<FeatureData> UpdateAndTransform(const RawChunk& chunk,
                                         size_t* rows_scanned = nullptr);

  /// Pure path: transform kernels only.  Used for prediction queries and
  /// dynamic re-materialization.  With a multi-threaded `engine` the chunk
  /// is split into row-range shards whose count is a function of the row
  /// count ONLY (mirroring the sharded gradient path in linear_model.cc),
  /// and the per-shard outputs are concatenated in shard order — the result
  /// is bit-identical to the serial call for any engine thread count.  Must
  /// not be called from inside an engine task (the pool does not nest).
  Result<FeatureData> Transform(const RawChunk& chunk,
                                ExecutionEngine* engine = nullptr,
                                size_t* rows_scanned = nullptr) const;

  /// The NoOptimization baseline (§5.4): processes the chunk as if online
  /// statistics computation did not exist — each stateful component's
  /// statistics are recomputed from scratch *for this chunk* on a throwaway
  /// clone (one extra scan per stateful component), then the chunk is
  /// transformed.  The deployed statistics are not touched.
  Result<FeatureData> TransformRecomputingStatistics(
      const RawChunk& chunk, size_t* rows_scanned = nullptr) const;

  /// Deep copy of the pipeline including component statistics (warm start).
  std::unique_ptr<Pipeline> Clone() const;

  /// Resets the statistics of every component.
  void Reset();

  std::string ToString() const;

  /// Checkpointing: persists / restores the statistics of every component.
  /// The loader must have built an identically structured pipeline; the
  /// component names are verified.
  Status SaveState(Serializer* out) const;
  Status LoadState(Deserializer* in);

  /// Statistics version: advanced before anything that may mutate component
  /// state (online updates, reset, checkpoint restore).  Snapshot
  /// publishers compare it to decide whether a frozen copy is still exact.
  uint64_t state_version() const {
    return state_version_.load(std::memory_order_acquire);
  }

  /// Plan-cache introspection (tests, reports).  Never null on a live
  /// pipeline.
  const fusion::PlanCache* plan_cache() const { return plan_cache_.get(); }

 private:
  /// The compiled plan for this pipeline's structure (cached).
  Result<std::shared_ptr<const fusion::FusedPlan>> Plan() const;

  /// Runs `plan` over the whole chunk as one block.
  Result<FeatureData> ExecuteSerial(const fusion::FusedPlan& plan,
                                    const RawChunk& chunk,
                                    size_t* rows_scanned, bool update) const;

  std::vector<std::unique_ptr<PipelineComponent>> components_;
  std::atomic<uint64_t> state_version_{0};
  std::unique_ptr<fusion::PlanCache> plan_cache_ =
      std::make_unique<fusion::PlanCache>();
  std::unique_ptr<fusion::ScratchPool> scratch_pool_ =
      std::make_unique<fusion::ScratchPool>();
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_PIPELINE_H_
