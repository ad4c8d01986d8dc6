#ifndef CDPIPE_PIPELINE_PIPELINE_H_
#define CDPIPE_PIPELINE_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/pipeline/component.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

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

  /// Appends a component; fails on a null one.  Drops the compiled plan.
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

  /// Pure path: transform kernels only, over the whole chunk as one block.
  /// Used for prediction queries and dynamic re-materialization.  Safe to
  /// call concurrently (each call leases its own scratch), which is how the
  /// re-materialization fan-out runs one chunk per engine worker.
  Result<FeatureData> Transform(const RawChunk& chunk,
                                size_t* rows_scanned = nullptr) const;

  /// The NoOptimization baseline (§5.4): processes the chunk as if online
  /// statistics computation did not exist — each stateful component's
  /// statistics are recomputed from scratch *for this chunk* on a throwaway
  /// clone (one extra scan per stateful component), then the chunk is
  /// transformed.  The deployed statistics are not touched.
  Result<FeatureData> TransformRecomputingStatistics(
      const RawChunk& chunk, size_t* rows_scanned = nullptr) const;

  /// Deep copy of the pipeline including component statistics (warm
  /// start).  The clone compiles its own plan (plans borrow components)
  /// but shares this pipeline's scratch pool, so its first transform runs
  /// on warm buffers: a scratch holds only per-block buffers and the
  /// scaler memo, which keys on a process-unique statistics serial, so
  /// nothing one pipeline leaves in a scratch can be read by another.
  std::unique_ptr<Pipeline> Clone() const;

  std::string ToString() const;

  /// Checkpointing: persists / restores the statistics of every component.
  /// The loader must have built an identically structured pipeline; the
  /// component names are verified.
  Status SaveState(Serializer* out) const;
  Status LoadState(Deserializer* in);

  /// Statistics version: a process-unique value (fusion::NextStatsSerial)
  /// redrawn before anything that may mutate component state (online
  /// updates, checkpoint restore) and drawn afresh by every
  /// construction and clone.  Equal versions therefore mean the same
  /// pipeline in the same state; snapshot publishers compare it to decide
  /// whether a frozen copy is still exact.
  uint64_t state_version() const {
    return state_version_.load(std::memory_order_acquire);
  }

  /// Plans this pipeline has compiled: one on first use and one after each
  /// AddComponent that a transform follows.  Plans do not depend on
  /// statistics, so updates, clones' transforms and LoadState never
  /// recompile.
  uint64_t plan_compiles() const {
    std::lock_guard<std::mutex> lock(plan_mu_);
    return plan_compiles_;
  }

 private:
  /// The compiled plan for this pipeline's structure, compiled on first
  /// use.  Compile failures are returned, not kept.
  Result<std::shared_ptr<const fusion::FusedPlan>> Plan() const;

  /// Runs `plan` over the whole chunk as one block.
  Result<FeatureData> Execute(const fusion::FusedPlan& plan,
                              const RawChunk& chunk, size_t* rows_scanned,
                              bool update) const;

  /// Draws a fresh state version, before any statistic moves.
  void AdvanceStateVersion() {
    state_version_.store(fusion::NextStatsSerial(), std::memory_order_release);
  }

  std::vector<std::unique_ptr<PipelineComponent>> components_;
  std::atomic<uint64_t> state_version_{fusion::NextStatsSerial()};
  /// Guards the plan: Transform runs concurrently on engine workers.
  mutable std::mutex plan_mu_;
  mutable std::shared_ptr<const fusion::FusedPlan> plan_;
  mutable uint64_t plan_compiles_ = 0;
  /// Shared by this pipeline and every Clone() made from it (see Clone).
  std::shared_ptr<fusion::ScratchPool> scratch_pool_ =
      std::make_shared<fusion::ScratchPool>();
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_PIPELINE_H_
