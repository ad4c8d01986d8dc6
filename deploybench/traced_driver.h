#ifndef CDPIPE_DEPLOYBENCH_TRACED_DRIVER_H_
#define CDPIPE_DEPLOYBENCH_TRACED_DRIVER_H_

#include <memory>
#include <vector>

#include "deploybench/span_recorder.h"
#include "deploybench/workloads.h"
#include "src/core/cost_model.h"
#include "src/core/data_manager.h"
#include "src/core/pipeline_manager.h"
#include "src/engine/execution_engine.h"
#include "src/ml/metrics.h"
#include "src/ml/prequential.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {
namespace deploybench {

/// A replica of `Deployment::InitialTrain` + `Deployment::Run` (plain,
/// no admission) for the continuous and periodical strategies, assembled
/// from the same public layer calls in the same order, with a span around
/// each call.  Failure handling is not replicated: where `Deployment`
/// would degrade, the driver returns the error, so a benchmark workload
/// must not fail anywhere.  Its final error, total work and μ must equal
/// the real Run's bit for bit — that is what makes its per-layer times a
/// breakdown of the program `Run` executes.
///
/// Span tree per stream chunk (all names are `<src module>.<call>`):
///   core.chunk
///     storage.ingest           DataManager::IngestChunk (+ retry)
///     pipeline.preprocess      PipelineManager::PreprocessChunk
///     serving.publish          PipelineManager::PublishSnapshot
///     serving.serve_eval       PredictionService::PredictWith + observe
///     ml.evaluate              PipelineManager::EvaluateFeatures
///     ml.online_update         PipelineManager::OnlineUpdate
///     storage.store_features   DataManager::StoreFeatures
///     core.proactive           continuous hook
///       sampling.sample        DataManager::SampleForTraining
///       pipeline.rematerialize engine fan-out of Rematerialize
///       ml.train_step          BatchView::CollectRows + TrainStep(BatchView)
///       serving.publish
///       storage.prefetch_schedule  DataManager::PrefetchForNextSample
///     core.retrain             periodical hook
///       storage.fetch_history  LiveIds / GetFeatures / FetchRaw
///       pipeline.rematerialize
///       ml.retrain             model + optimizer clone, BatchTrainer::Train,
///                              Redeploy
class TracedDeployment {
 public:
  /// Layer counts gathered at the same call sites as the spans.
  struct Counts {
    int64_t preprocess_rows = 0;
    int64_t sampled_chunks = 0;
    int64_t rematerialized_chunks = 0;
    int64_t rematerialized_rows = 0;
    int64_t train_step_rows = 0;
    int64_t retrain_rows = 0;
    int64_t retrain_epochs = 0;
    int64_t publishes = 0;
    /// Publishes that cloned the pipeline (vs. sharing the previous epoch's).
    int64_t pipeline_clones = 0;
    /// Serve-eval requests that failed and fell back to the in-loop path.
    int64_t serve_eval_fallbacks = 0;
  };

  struct Outcome {
    double final_error = 0.0;
    int64_t total_work = 0;
    double mu = 0.0;
    ChunkStore::Counters storage;
    int64_t chunks_processed = 0;
    Counts counts;
  };

  TracedDeployment(const DeploymentConfig& config,
                   const bench::Scenario& scenario, SpanRecorder* spans);
  ~TracedDeployment();

  TracedDeployment(const TracedDeployment&) = delete;
  TracedDeployment& operator=(const TracedDeployment&) = delete;

  /// Serve-then-train, as `Deployment::AttachServing(publisher, service,
  /// true)`.  Both pointers are borrowed.
  void AttachServing(serving::SnapshotPublisher* publisher,
                     serving::PredictionService* service);

  Status InitialTrain(const std::vector<RawChunk>& bootstrap);
  Result<Outcome> Run(const std::vector<RawChunk>& stream);

 private:
  Status ProcessChunk(size_t stream_index, const RawChunk& chunk,
                      PrequentialEvaluator* evaluator);
  Result<FeatureChunk> OnlinePath(const RawChunk& chunk,
                                  PrequentialEvaluator* evaluator);
  Status ProactiveStep();
  Status Retrain();
  /// Re-materializes `raw` on the engine into `rebuilt` (one slot each).
  Status RematerializeAll(const std::vector<const RawChunk*>& raw,
                          std::vector<FeatureChunk>* rebuilt);
  void Publish();

  DeploymentConfig config_;
  SpanRecorder* spans_;
  CostModel cost_;
  DataManager data_manager_;
  ExecutionEngine engine_;
  PipelineManager pipeline_manager_;
  std::unique_ptr<Metric> metric_;
  Rng rng_;
  serving::SnapshotPublisher* publisher_ = nullptr;
  serving::PredictionService* service_ = nullptr;
  std::unique_ptr<serving::SnapshotReader> reader_;
  Counts counts_;
};

}  // namespace deploybench
}  // namespace cdpipe

#endif  // CDPIPE_DEPLOYBENCH_TRACED_DRIVER_H_
