#include "deploybench/traced_driver.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/retry.h"
#include "src/ml/batch_view.h"
#include "src/ml/trainer.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace deploybench {

using Scope = SpanRecorder::Scope;

TracedDeployment::TracedDeployment(const DeploymentConfig& config,
                                   const bench::Scenario& scenario,
                                   SpanRecorder* spans)
    : config_(config),
      spans_(spans),
      data_manager_(config.options.store,
                    MakeSampler(config.options.sampler,
                                config.options.sampler_window)),
      engine_(config.options.engine_threads),
      pipeline_manager_(
          scenario.MakePipeline(), scenario.MakeModel(),
          MakeOptimizer(config.optimizer), &cost_,
          PipelineManager::Options{config.options.online_statistics}),
      metric_(scenario.MakeMetric()),
      rng_(config.options.seed) {
  CDPIPE_CHECK(spans_ != nullptr);
  engine_.set_retry_policy(config_.options.retry);
  data_manager_.mutable_store().set_cost_model(&cost_);
  if (data_manager_.store().spilling_enabled()) {
    data_manager_.EnablePrefetch(&engine_);
  }
}

TracedDeployment::~TracedDeployment() {
  // The prefetcher drains the engine's async lane: stop it while the
  // engine is alive.
  data_manager_.DisablePrefetch();
}

void TracedDeployment::AttachServing(serving::SnapshotPublisher* publisher,
                                     serving::PredictionService* service) {
  publisher_ = publisher;
  service_ = service;
  pipeline_manager_.AttachPublisher(publisher);
  reader_ = publisher != nullptr
                ? std::make_unique<serving::SnapshotReader>(publisher)
                : nullptr;
}

Status TracedDeployment::InitialTrain(const std::vector<RawChunk>& bootstrap) {
  std::vector<FeatureChunk> transformed;
  transformed.reserve(bootstrap.size());
  for (const RawChunk& chunk : bootstrap) {
    CDPIPE_RETURN_NOT_OK(data_manager_.IngestChunk(chunk));
    CDPIPE_ASSIGN_OR_RETURN(FeatureChunk features,
                            pipeline_manager_.PreprocessChunk(chunk));
    transformed.push_back(std::move(features));
  }
  std::vector<const FeatureData*> parts;
  parts.reserve(transformed.size());
  for (const FeatureChunk& chunk : transformed) parts.push_back(&chunk.data);
  BatchTrainer trainer(config_.initial_train);
  CDPIPE_RETURN_NOT_OK(trainer
                           .Train(parts, pipeline_manager_.mutable_model(),
                                  pipeline_manager_.mutable_optimizer(), &rng_,
                                  &engine_)
                           .status());
  for (FeatureChunk& chunk : transformed) {
    CDPIPE_RETURN_NOT_OK(data_manager_.StoreFeatures(std::move(chunk)));
  }
  cost_.Reset();
  pipeline_manager_.PublishSnapshot();
  return Status::OK();
}

Result<TracedDeployment::Outcome> TracedDeployment::Run(
    const std::vector<RawChunk>& stream) {
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  cost_.Reset();
  data_manager_.mutable_store().ResetCounters();
  counts_ = Counts{};
  PrequentialEvaluator evaluator(metric_->Clone(), config_.options.eval_window);
  Publish();
  for (size_t i = 0; i < stream.size(); ++i) {
    CDPIPE_RETURN_NOT_OK(ProcessChunk(i, stream[i], &evaluator));
  }
  const obs::MetricsSnapshot delta = obs::MetricsSnapshot::Delta(
      before, obs::MetricsRegistry::Global().Snapshot());
  counts_.pipeline_clones =
      counts_.publishes -
      delta.CounterValueOr("serving.snapshot_pipeline_reused", 0);

  Outcome outcome;
  outcome.final_error = evaluator.CumulativeValue();
  outcome.total_work = cost_.TotalWork();
  outcome.storage = data_manager_.store().counters();
  outcome.mu = outcome.storage.EmpiricalMu();
  outcome.chunks_processed = static_cast<int64_t>(stream.size());
  outcome.counts = counts_;
  return outcome;
}

Status TracedDeployment::ProcessChunk(size_t stream_index,
                                      const RawChunk& chunk,
                                      PrequentialEvaluator* evaluator) {
  Scope step(spans_, "core.chunk", chunk.id);
  const RawChunk* stored = nullptr;
  {
    Scope span(spans_, "storage.ingest");
    CDPIPE_RETURN_NOT_OK(RetryWithBackoff(
        config_.options.retry, "deployment.ingest",
        [&]() -> Status { return data_manager_.IngestChunk(chunk); }));
    stored = data_manager_.store().GetRaw(chunk.id);
    CDPIPE_CHECK(stored != nullptr);
  }
  CDPIPE_ASSIGN_OR_RETURN(FeatureChunk features,
                          OnlinePath(*stored, evaluator));
  {
    Scope span(spans_, "storage.store_features");
    CDPIPE_RETURN_NOT_OK(data_manager_.StoreFeatures(std::move(features)));
  }
  const uint64_t epoch_before = publisher_ != nullptr ? publisher_->epoch() : 0;
  if (config_.strategy == bench::StrategyKind::kContinuous) {
    if ((stream_index + 1) % config_.proactive_every_chunks == 0) {
      CDPIPE_RETURN_NOT_OK(ProactiveStep());
    }
  } else if ((stream_index + 1) % config_.retrain_every_chunks == 0) {
    CDPIPE_RETURN_NOT_OK(Retrain());
  }
  // No training step published this chunk: expose the post-SGD model.
  if (publisher_ != nullptr && publisher_->epoch() == epoch_before) Publish();
  return Status::OK();
}

Result<FeatureChunk> TracedDeployment::OnlinePath(
    const RawChunk& chunk, PrequentialEvaluator* evaluator) {
  FeatureChunk features;
  {
    Scope span(spans_, "pipeline.preprocess");
    CDPIPE_ASSIGN_OR_RETURN(features, pipeline_manager_.PreprocessChunk(chunk));
  }
  counts_.preprocess_rows += static_cast<int64_t>(chunk.num_rows());
  bool evaluated = false;
  if (publisher_ != nullptr) {
    // Serve-then-train: publish the post-statistics, pre-SGD state and
    // evaluate the chunk through the service against it.
    Publish();
    if (service_ != nullptr) {
      Scope span(spans_, "serving.serve_eval");
      Result<serving::PredictionService::Response> response =
          service_->PredictWith(reader_.get(), chunk);
      if (response.ok()) {
        CostModel::ScopedTimer timer(&cost_, CostPhase::kPrediction);
        for (size_t r = 0; r < response->scores.size(); ++r) {
          evaluator->Observe(response->scores[r], response->true_labels[r]);
        }
        cost_.AddWork(CostPhase::kPrediction,
                      static_cast<int64_t>(response->scores.size()));
        evaluated = true;
      } else {
        counts_.serve_eval_fallbacks += 1;
      }
    }
  }
  if (!evaluated) {
    Scope span(spans_, "ml.evaluate");
    pipeline_manager_.EvaluateFeatures(features.data, evaluator);
  }
  if (config_.options.online_learning) {
    Scope span(spans_, "ml.online_update");
    CDPIPE_RETURN_NOT_OK(pipeline_manager_.OnlineUpdate(features.data));
  }
  return features;
}

Status TracedDeployment::RematerializeAll(
    const std::vector<const RawChunk*>& raw,
    std::vector<FeatureChunk>* rebuilt) {
  Scope span(spans_, "pipeline.rematerialize");
  rebuilt->resize(raw.size());
  CDPIPE_RETURN_NOT_OK(
      engine_.ParallelFor(raw.size(), [&](size_t i) -> Status {
        CDPIPE_ASSIGN_OR_RETURN((*rebuilt)[i],
                                pipeline_manager_.Rematerialize(*raw[i]));
        return Status::OK();
      }));
  counts_.rematerialized_chunks += static_cast<int64_t>(raw.size());
  for (const RawChunk* chunk : raw) {
    counts_.rematerialized_rows += static_cast<int64_t>(chunk->num_rows());
  }
  return Status::OK();
}

Status TracedDeployment::ProactiveStep() {
  Scope hook(spans_, "core.proactive");
  DataManager::SampleSet sample;
  {
    Scope span(spans_, "sampling.sample");
    CDPIPE_ASSIGN_OR_RETURN(
        sample, data_manager_.SampleForTraining(config_.sample_chunks, &rng_));
  }
  counts_.sampled_chunks += static_cast<int64_t>(sample.num_chunks());
  std::vector<FeatureChunk> rebuilt;
  CDPIPE_RETURN_NOT_OK(RematerializeAll(sample.to_rematerialize, &rebuilt));
  std::vector<const FeatureData*> parts;
  parts.reserve(sample.num_chunks());
  for (const FeatureChunk* chunk : sample.materialized) {
    parts.push_back(&chunk->data);
  }
  for (const FeatureChunk& chunk : rebuilt) parts.push_back(&chunk.data);
  {
    Scope span(spans_, "ml.train_step");
    uint32_t dim = 0;
    CDPIPE_ASSIGN_OR_RETURN(const std::vector<BatchView::RowRef> rows,
                            BatchView::CollectRows(parts, &dim));
    const BatchView batch(dim, rows);
    if (!batch.empty()) {
      CDPIPE_RETURN_NOT_OK(RetryWithBackoff(
          config_.options.retry, "proactive.train_step", [&]() -> Status {
            return pipeline_manager_.TrainStep(
                batch, CostPhase::kProactiveTraining, &engine_);
          }));
    }
    counts_.train_step_rows += static_cast<int64_t>(batch.num_rows());
  }
  Publish();
  {
    Scope span(spans_, "storage.prefetch_schedule");
    data_manager_.PrefetchForNextSample(config_.sample_chunks,
                                        config_.proactive_every_chunks, rng_);
  }
  return Status::OK();
}

Status TracedDeployment::Retrain() {
  Scope hook(spans_, "core.retrain");
  std::vector<const FeatureData*> parts;
  std::vector<const RawChunk*> to_transform;
  {
    Scope span(spans_, "storage.fetch_history");
    for (ChunkId id : data_manager_.store().LiveIds()) {
      if (const FeatureChunk* features = data_manager_.store().GetFeatures(id)) {
        parts.push_back(&features->data);
        continue;
      }
      const RawChunk* raw = data_manager_.mutable_store().FetchRaw(id);
      if (raw == nullptr) {
        return Status::Internal("live chunk " + std::to_string(id) +
                                " has no raw bytes");
      }
      to_transform.push_back(raw);
    }
  }
  std::vector<FeatureChunk> rebuilt;
  CDPIPE_RETURN_NOT_OK(RematerializeAll(to_transform, &rebuilt));
  for (const FeatureChunk& chunk : rebuilt) parts.push_back(&chunk.data);
  if (parts.empty()) return Status::OK();

  Scope span(spans_, "ml.retrain");
  std::unique_ptr<Optimizer> optimizer = pipeline_manager_.optimizer().Clone();
  std::unique_ptr<LinearModel> model;
  if (config_.warm_start) {
    model = std::make_unique<LinearModel>(pipeline_manager_.model());
  } else {
    model = std::make_unique<LinearModel>(pipeline_manager_.model().options());
    optimizer->Reset();
  }
  {
    CostModel::ScopedTimer timer(&cost_, CostPhase::kRetraining);
    BatchTrainer trainer(config_.retrain);
    CDPIPE_ASSIGN_OR_RETURN(
        BatchTrainer::Stats stats,
        trainer.Train(parts, model.get(), optimizer.get(), &rng_, &engine_));
    cost_.AddWork(CostPhase::kRetraining, stats.examples_visited);
    counts_.retrain_rows += stats.examples_visited;
    counts_.retrain_epochs += stats.epochs_run;
  }
  pipeline_manager_.Redeploy(std::move(model), std::move(optimizer));
  return Status::OK();
}

void TracedDeployment::Publish() {
  if (publisher_ == nullptr) return;
  Scope span(spans_, "serving.publish");
  pipeline_manager_.PublishSnapshot();
  counts_.publishes += 1;
}

}  // namespace deploybench
}  // namespace cdpipe
