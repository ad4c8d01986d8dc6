#ifndef CDPIPE_CORE_PIPELINE_MANAGER_H_
#define CDPIPE_CORE_PIPELINE_MANAGER_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/core/cost_model.h"
#include "src/dataframe/chunk.h"
#include "src/ml/linear_model.h"
#include "src/ml/optimizer.h"
#include "src/ml/prequential.h"
#include "src/pipeline/pipeline.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {

/// The central component of the deployment platform (paper §4.3): owns the
/// deployed pipeline, model, and optimizer; runs the online path for
/// arriving chunks; answers prediction queries; and re-materializes evicted
/// feature chunks — always through the *same* pipeline object, which is what
/// guarantees train/serve consistency.
class PipelineManager {
 public:
  struct Options {
    /// Online statistics computation (§3.1).  When disabled (the
    /// NoOptimization baseline of §5.4), re-materialization recomputes
    /// component statistics by rescanning the sampled chunk.
    bool online_statistics = true;
  };

  PipelineManager(std::unique_ptr<Pipeline> pipeline,
                  std::unique_ptr<LinearModel> model,
                  std::unique_ptr<Optimizer> optimizer, CostModel* cost,
                  Options options = Options{true});

  /// The online path for one arriving training chunk:
  ///   1. update every component's statistics and transform the chunk
  ///      (preprocessing cost),
  ///   2. prequential test-then-train: evaluate the *current* model on the
  ///      transformed rows (prediction cost), feeding `evaluator` when it
  ///      is non-null,
  ///   3. apply one online SGD update over the chunk (online-training
  ///      cost).
  /// Returns the materialized feature chunk for storage.
  Result<FeatureChunk> OnlineStep(const RawChunk& chunk,
                                  PrequentialEvaluator* evaluator);

  /// The three phases of OnlineStep, exposed individually so the serving
  /// tier can interleave a snapshot publish between them (serve-then-train:
  /// publish after the statistics update, evaluate through the prediction
  /// service against that snapshot, then apply the online SGD update).
  /// `OnlineStep(c, e)` ≡ `PreprocessChunk(c)` + `EvaluateFeatures(f, e)` +
  /// `OnlineUpdate(f)` — bit-identical, same cost accounting.
  Result<FeatureChunk> PreprocessChunk(const RawChunk& chunk);
  void EvaluateFeatures(const FeatureData& features,
                        PrequentialEvaluator* evaluator);
  Status OnlineUpdate(const FeatureData& features);

  /// Attaches a serving snapshot publisher (nullptr detaches).  Once
  /// attached, Redeploy and Restore publish a fresh epoch automatically —
  /// the serving tier can never keep answering from a model that the
  /// deployment loop already replaced.
  void AttachPublisher(serving::SnapshotPublisher* publisher) {
    publisher_ = publisher;
  }
  serving::SnapshotPublisher* publisher() const { return publisher_; }

  /// Publishes the current deployed state as a new snapshot epoch.
  /// Returns the epoch, or 0 when no publisher is attached.
  uint64_t PublishSnapshot();

  /// Re-materializes an evicted feature chunk (transform-only; statistics
  /// untouched).  Under `online_statistics == false` this also pays the
  /// statistics-recomputation scans.  Cost lands in kMaterialization.
  /// Safe to call from engine workers, one chunk per task.
  Result<FeatureChunk> Rematerialize(const RawChunk& chunk) const;

  /// Transforms prediction queries and scores them (no statistics update,
  /// no label use beyond returning them for the caller's evaluation).
  Result<FeatureData> TransformForInference(const RawChunk& queries) const;

  /// One proactive mini-batch SGD iteration over borrowed rows (cost
  /// recorded under `phase`): no merged FeatureData is ever materialized.
  /// When `engine` is non-null the gradient accumulation is sharded across
  /// its workers (bit-identical to the serial result).
  Status TrainStep(const BatchView& batch, CostPhase phase,
                   ExecutionEngine* engine = nullptr);

  const Pipeline& pipeline() const { return *pipeline_; }
  Pipeline* mutable_pipeline() { return pipeline_.get(); }
  const LinearModel& model() const { return *model_; }
  LinearModel* mutable_model() { return model_.get(); }
  const Optimizer& optimizer() const { return *optimizer_; }
  Optimizer* mutable_optimizer() { return optimizer_.get(); }
  CostModel* cost() { return cost_; }
  const Options& options() const { return options_; }

  /// Replaces the deployed model and optimizer (periodical redeployment).
  void Redeploy(std::unique_ptr<LinearModel> model,
                std::unique_ptr<Optimizer> optimizer);

  /// Atomically replaces the full deployed state — pipeline, model, and
  /// optimizer — in one step (checkpoint restore: the loader deserializes
  /// into scratch copies and commits them here only after every read
  /// succeeded, so a corrupt checkpoint can never leave partial state).
  void Restore(std::unique_ptr<Pipeline> pipeline,
               std::unique_ptr<LinearModel> model,
               std::unique_ptr<Optimizer> optimizer);

 private:
  std::unique_ptr<Pipeline> pipeline_;
  std::unique_ptr<LinearModel> model_;
  std::unique_ptr<Optimizer> optimizer_;
  CostModel* cost_;
  Options options_;
  serving::SnapshotPublisher* publisher_ = nullptr;  ///< not owned
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_PIPELINE_MANAGER_H_
