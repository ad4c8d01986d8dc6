#include "src/core/deployment.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/correlation.h"
#include "src/obs/decision.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace {

std::atomic<uint32_t> next_deployment_id{1};

struct DeploymentMetrics {
  obs::Counter* chunks_processed;
  obs::Histogram* chunk_seconds;

  static const DeploymentMetrics& Get() {
    static const DeploymentMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      DeploymentMetrics m;
      m.chunks_processed = registry.GetCounter("deployment.chunks_processed");
      m.chunk_seconds = registry.GetHistogram("deployment.chunk_seconds");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

Deployment::Deployment(std::string strategy_name, Options options,
                       std::unique_ptr<Pipeline> pipeline,
                       std::unique_ptr<LinearModel> model,
                       std::unique_ptr<Optimizer> optimizer,
                       std::unique_ptr<Metric> metric)
    : strategy_name_(std::move(strategy_name)),
      deployment_id_(
          next_deployment_id.fetch_add(1, std::memory_order_relaxed)),
      options_(std::move(options)),
      data_manager_(options_.store,
                    MakeSampler(options_.sampler, options_.sampler_window)),
      engine_(options_.engine_threads),
      pipeline_manager_(std::make_unique<PipelineManager>(
          std::move(pipeline), std::move(model), std::move(optimizer), &cost_,
          PipelineManager::Options{options_.online_statistics})),
      trainer_(pipeline_manager_.get(), &engine_, options_.retry),
      metric_prototype_(std::move(metric)),
      rng_(options_.seed) {
  CDPIPE_CHECK(metric_prototype_ != nullptr);
  engine_.set_retry_policy(options_.retry);
  data_manager_.mutable_store().set_cost_model(&cost_);
  // A configured disk tier gets prefetching: the strategy hooks predict
  // the next sample's chunk ids and stage the spilled ones on the engine's
  // async lane while the trainer works.
  if (data_manager_.store().spilling_enabled()) {
    data_manager_.EnablePrefetch(&engine_);
  }
}

Status Deployment::InitialTrain(const std::vector<RawChunk>& bootstrap,
                                const BatchTrainer::Options& train_options) {
  // Preprocess with statistics updates and keep the features for training.
  std::vector<FeatureChunk> transformed;
  transformed.reserve(bootstrap.size());
  for (const RawChunk& chunk : bootstrap) {
    CDPIPE_RETURN_NOT_OK(data_manager_.IngestChunk(chunk));
    CDPIPE_ASSIGN_OR_RETURN(FeatureChunk features,
                            pipeline_manager_->PreprocessChunk(chunk));
    transformed.push_back(std::move(features));
  }
  std::vector<const FeatureData*> parts;
  parts.reserve(transformed.size());
  for (const FeatureChunk& chunk : transformed) parts.push_back(&chunk.data);

  BatchTrainer trainer(train_options);
  CDPIPE_RETURN_NOT_OK(
      trainer
          .Train(parts, pipeline_manager_->mutable_model(),
                 pipeline_manager_->mutable_optimizer(), &rng_, &engine_)
          .status());

  // The bootstrap chunks become historical data available for sampling.
  for (FeatureChunk& chunk : transformed) {
    CDPIPE_RETURN_NOT_OK(data_manager_.StoreFeatures(std::move(chunk)));
  }
  // Initial training is not part of the deployment cost.
  cost_.Reset();
  // The initial model is the first deployed state the serving tier can
  // answer from.
  pipeline_manager_->PublishSnapshot();
  return Status::OK();
}

void Deployment::AttachServing(serving::SnapshotPublisher* publisher,
                               serving::PredictionService* service,
                               bool serve_evaluation) {
  serving_publisher_ = publisher;
  serving_service_ = service;
  // Serve-eval reads through serve_reader_, which needs a publisher.
  serve_evaluation_ =
      serve_evaluation && service != nullptr && publisher != nullptr;
  pipeline_manager_->AttachPublisher(publisher);
  serve_reader_ =
      publisher != nullptr
          ? std::make_unique<serving::SnapshotReader>(publisher)
          : nullptr;
}

Result<FeatureChunk> Deployment::RunOnlinePath(
    const RawChunk& chunk, PrequentialEvaluator* evaluator,
    bool gate_publish) {
  // Serve-then-train: update statistics and transform, publish the
  // resulting (statistics, pre-SGD model) pair as a snapshot, evaluate the
  // chunk against that snapshot — through the prediction service when
  // routed — and only then apply the online SGD update.  Publishing at
  // this exact point is what makes the served evaluation bit-identical to
  // the in-loop one: the snapshot's pipeline is frozen from the statistics
  // that produced `features`, so the service scores `features` themselves
  // (a pure Transform of the chunk would reproduce them exactly), and the
  // snapshot model is the same pre-update model the in-loop evaluate
  // uses.  Without a publisher the publish is a no-op and this is the
  // plain online step.
  CDPIPE_ASSIGN_OR_RETURN(FeatureChunk features,
                          pipeline_manager_->PreprocessChunk(chunk));
  // Overload gating: keep serving from the previously published epoch
  // instead of paying the per-chunk publish (the served evaluation then
  // sees a model at most `publish_staleness_bound_chunks` chunks old, and
  // that epoch's pipeline transforms the chunk itself).
  if (!gate_publish) pipeline_manager_->PublishSnapshot();
  bool evaluated = false;
  if (serve_evaluation_ && evaluator != nullptr) {
    // Like EvaluateFeatures, one timer covers predicting and observing.
    CostModel::ScopedTimer timer(&cost_, CostPhase::kPrediction);
    Result<serving::PredictionService::Response> response =
        serving_service_->PredictWith(
            serve_reader_.get(), chunk, features.data,
            pipeline_manager_->pipeline().state_version());
    if (response.ok()) {
      for (size_t r = 0; r < response->scores.size(); ++r) {
        evaluator->Observe(response->scores[r], response->true_labels[r]);
      }
      cost_.AddWork(CostPhase::kPrediction,
                    static_cast<int64_t>(response->scores.size()));
      evaluated = true;
    } else {
      // A failed request (injected fault, stopped service) must not poke a
      // hole in the quality curve: fall back to the in-loop evaluate,
      // which observes the exact same (score, label) sequence.
      obs::Record(obs::Decision::kServeEvalFallback, {}, response.status());
    }
  }
  if (!evaluated && evaluator != nullptr) {
    pipeline_manager_->EvaluateFeatures(features.data, evaluator);
  }
  if (options_.online_learning) {
    CDPIPE_RETURN_NOT_OK(pipeline_manager_->OnlineUpdate(features.data));
  }
  return features;
}

/// Mutable per-replay bookkeeping threaded through ProcessStreamChunk.
struct Deployment::RunState {
  PrequentialEvaluator* evaluator = nullptr;
  DeploymentReport* report = nullptr;
  obs::Heartbeat* heartbeat = nullptr;
  int64_t previous_event_time = 0;
  /// Chunks processed since a snapshot epoch was last published.
  size_t chunks_since_publish = 0;
};

Status Deployment::ProcessStreamChunk(RunState* state, const RawChunk& chunk,
                                      bool degraded_admit) {
  obs::CorrelationScope chunk_scope(deployment_id_, chunk.id);
  obs::Heartbeat::WorkScope work(state->heartbeat);
  obs::Phase phase("core.chunk", DeploymentMetrics::Get().chunk_seconds);
  // Overload publish gate: while the ingest queue is overloaded, skip this
  // chunk's snapshot publishes — unless that would push the served model
  // past the staleness bound K (a republish is forced every K-th chunk).
  const bool gate_publish =
      serving_publisher_ != nullptr &&
      options_.publish_staleness_bound_chunks > 0 &&
      load_state() == LoadState::kOverloaded &&
      state->chunks_since_publish + 1 < options_.publish_staleness_bound_chunks;
  // Ingest with retry; when a transient storage failure survives its
  // retries, degrade: process the stream's copy of the chunk online so
  // the quality curve stays continuous — the chunk is simply never
  // available for proactive sampling.  Logic errors (duplicate ids)
  // still abort.
  const Status ingest_status =
      RetryWithBackoff(options_.retry, "deployment.ingest",
                       [&]() -> Status {
                         return data_manager_.IngestChunk(chunk);
                       });
  const RawChunk* stored = nullptr;
  if (ingest_status.ok()) {
    // The store owns the canonical copy; process that one.
    stored = data_manager_.store().GetRaw(chunk.id);
    CDPIPE_CHECK(stored != nullptr);
  } else if (IsRetryable(ingest_status)) {
    obs::Record(obs::Decision::kIngestFailed, {}, ingest_status);
    stored = &chunk;
  } else {
    return ingest_status;
  }

  PrequentialEvaluator& evaluator = *state->evaluator;
  const int64_t count_before = evaluator.Count();
  const double mass_before = evaluator.AggregateMass();
  const double prediction_seconds_before =
      cost_.SecondsIn(CostPhase::kPrediction);
  CDPIPE_ASSIGN_OR_RETURN(FeatureChunk features,
                          RunOnlinePath(*stored, &evaluator, gate_publish));
  if (ingest_status.ok() && !degraded_admit) {
    // A transiently failed materialization degrades cleanly: the chunk
    // stays unmaterialized and dynamic materialization rebuilds it on
    // demand the first time proactive training samples it.
    const Status store_status =
        data_manager_.StoreFeatures(std::move(features));
    if (!store_status.ok()) {
      if (!IsRetryable(store_status)) return store_status;
      obs::Record(obs::Decision::kStoreFeaturesFailed, {}, store_status);
    }
  } else if (ingest_status.ok() && degraded_admit) {
    // kDegrade admission under pressure: the raw chunk is stored, but its
    // feature materialization is skipped to shed work — dynamic
    // materialization rebuilds it if proactive training ever samples it.
    obs::Record(obs::Decision::kDegradedAdmit);
  }

  ChunkOutcome outcome;
  outcome.rows = evaluator.Count() - count_before;
  outcome.mean_error_signal =
      outcome.rows > 0 ? (evaluator.AggregateMass() - mass_before) /
                             static_cast<double>(outcome.rows)
                       : 0.0;
  outcome.prediction_seconds =
      cost_.SecondsIn(CostPhase::kPrediction) - prediction_seconds_before;
  outcome.event_period_seconds = static_cast<double>(
      chunk.event_time_seconds - state->previous_event_time);
  state->previous_event_time = chunk.event_time_seconds;
  const uint64_t epoch_before_chunk =
      serving_publisher_ != nullptr ? serving_publisher_->epoch() : 0;
  // The curve has one row per fully processed chunk, so its length is the
  // run-relative index of this chunk.
  const size_t stream_index = state->report->curve.size();
  CDPIPE_RETURN_NOT_OK(AfterChunk(stream_index, *stored, outcome));
  if (serving_publisher_ != nullptr &&
      serving_publisher_->epoch() == epoch_before_chunk) {
    if (gate_publish) {
      state->report->publish_skipped_overload += 1;
    } else {
      // The strategy hook did not publish (no proactive/retraining step
      // this chunk): expose the post-online-SGD model before the next
      // chunk arrives.  In serve-eval mode this is the cheap model-only
      // republish (statistics unchanged since the mid-chunk publish).
      pipeline_manager_->PublishSnapshot();
    }
  }
  if (serving_publisher_ != nullptr) {
    // Staleness accounting: in serve-eval mode the evaluation answered
    // *before* any publish this chunk, so a gated chunk serves a model
    // `chunks_since_publish + 1` chunks old.
    if (gate_publish) {
      state->chunks_since_publish += 1;
      int64_t& max_staleness = state->report->max_snapshot_staleness_chunks;
      max_staleness = std::max(
          max_staleness, static_cast<int64_t>(state->chunks_since_publish));
    } else {
      state->chunks_since_publish = 0;
    }
  }

  DeploymentReport::PointRow row;
  row.chunk_index = static_cast<int64_t>(stream_index);
  row.observations = evaluator.Count();
  row.cumulative_error = evaluator.CumulativeValue();
  row.windowed_error = evaluator.WindowedValue();
  row.cumulative_seconds = cost_.TotalSeconds();
  row.cumulative_work = cost_.TotalWork();
  state->report->curve.push_back(row);
  DeploymentMetrics::Get().chunks_processed->Increment();
  return Status::OK();
}

Result<DeploymentReport> Deployment::Run(const std::vector<RawChunk>& stream) {
  return RunImpl(stream, /*admission=*/nullptr);
}

Result<DeploymentReport> Deployment::RunShaped(
    const std::vector<RawChunk>& stream, AdmissionController* admission) {
  CDPIPE_CHECK(admission != nullptr);
  return RunImpl(stream, admission);
}

Result<DeploymentReport> Deployment::RunImpl(
    const std::vector<RawChunk>& stream, AdmissionController* admission) {
  obs::CorrelationScope run_scope(deployment_id_, /*entity=*/-1);
  obs::Phase phase("core.run");
  obs::Heartbeat* heartbeat =
      obs::HealthRegistry::Global().GetHeartbeat("deployment");
  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Global().Snapshot();
  cost_.Reset();
  data_manager_.mutable_store().ResetCounters();
  PrequentialEvaluator evaluator(metric_prototype_->Clone(),
                                 options_.eval_window);

  DeploymentReport report;
  report.strategy = strategy_name_;
  report.metric_name = metric_prototype_->name();
  report.curve.reserve(stream.size());

  // Serving attached: make sure an epoch exists before the first request
  // can arrive (requests against an empty publisher fail Unavailable).
  if (serving_publisher_ != nullptr) pipeline_manager_->PublishSnapshot();

  RunState state;
  state.evaluator = &evaluator;
  state.report = &report;
  state.heartbeat = heartbeat;
  state.previous_event_time =
      stream.empty() ? 0 : stream[0].event_time_seconds;

  active_admission_ = admission;
  Status replay_status = Status::OK();
  if (admission == nullptr) {
    for (const RawChunk& chunk : stream) {
      replay_status = ProcessStreamChunk(&state, chunk, /*degraded_admit=*/false);
      if (!replay_status.ok()) break;
    }
  } else {
    // Virtual-time admission simulation: arrivals on the stream's event
    // clock, one consumer draining `service_seconds_per_chunk` per chunk.
    // The Run thread drives both sides, so every decision is a pure
    // function of (arrival times, admission options) — reproducible at any
    // engine thread count and unaffected by injected storage faults.
    for (const RawChunk& next : stream) {
      const double arrival = static_cast<double>(next.event_time_seconds);
      // Process everything the consumer finished before this arrival.
      while (replay_status.ok() && admission->HeadReadyAt(arrival)) {
        AdmissionController::Admitted admitted = admission->Pop();
        replay_status =
            ProcessStreamChunk(&state, admitted.chunk, admitted.degraded);
      }
      if (!replay_status.ok()) break;
      RawChunk arriving = next;  // Offer moves the chunk on admission
      AdmissionController::Decision decision =
          admission->Offer(&arriving, arrival);
      if (decision == AdmissionController::Decision::kWouldBlock) {
        // kBlock: wait (in virtual time) for queue slots, processing the
        // chunks whose service completes meanwhile; shed once the next
        // slot would free past the timeout deadline.
        const double deadline =
            arrival + admission->options().block_timeout_seconds;
        while (decision == AdmissionController::Decision::kWouldBlock) {
          const double head_done = admission->HeadCompletionSeconds();
          if (head_done > deadline) {
            admission->ShedBlocked(arriving.id);
            break;
          }
          AdmissionController::Admitted admitted = admission->Pop();
          replay_status =
              ProcessStreamChunk(&state, admitted.chunk, admitted.degraded);
          if (!replay_status.ok()) break;
          decision = admission->Offer(&arriving, head_done);
        }
        if (!replay_status.ok()) break;
      }
    }
    // End of stream: drain the backlog.
    while (replay_status.ok() && !admission->empty()) {
      AdmissionController::Admitted admitted = admission->Pop();
      replay_status =
          ProcessStreamChunk(&state, admitted.chunk, admitted.degraded);
    }
  }
  active_admission_ = nullptr;
  // The last strategy hook may have staged loads that are still running;
  // they charge the cost model and count corrupt files, so let them finish
  // before the report reads either.
  engine_.DrainAsync();
  if (!replay_status.ok()) return replay_status;

  report.cost = cost_;
  report.storage = data_manager_.store().counters();
  if (admission != nullptr) {
    report.ingest = admission->counters();
    // The admission accounting identities: every offered chunk was admitted
    // or shed on arrival, and every admitted chunk was processed unless a
    // newer arrival displaced it from the queue.
    const AdmissionController::Counters& ingest = report.ingest;
    CDPIPE_CHECK_EQ(ingest.offered,
                    ingest.admitted + ingest.shed_newest + ingest.shed_timeout);
    CDPIPE_CHECK_EQ(static_cast<int64_t>(report.curve.size()),
                    ingest.admitted - ingest.shed_oldest);
  }
  report.metrics = obs::MetricsSnapshot::Delta(
      metrics_before, obs::MetricsRegistry::Global().Snapshot());

  // The plain copies DeploymentReport keeps for field readers.
  report.final_error =
      report.curve.empty() ? 0.0 : report.curve.back().cumulative_error;
  report.total_work = report.cost.TotalWork();
  report.empirical_mu = report.storage.EmpiricalMu();
  report.chunks_processed = static_cast<int64_t>(report.curve.size());
  const obs::MetricsSnapshot& m = report.metrics;
  report.retrainings = m.CounterValueOr("deployment.retrainings", 0);
  report.degraded_events =
      m.CounterValueOr("deployment.ingest_failed", 0) +
      m.CounterValueOr("deployment.store_features_failed", 0) +
      m.CounterValueOr("serving.eval_fallbacks", 0) +
      m.CounterValueOr("training.chunks_skipped", 0) +
      m.CounterValueOr("training.iterations_degraded", 0);
  report.serving_stale_reads = m.CounterValueOr("serving.stale_reads", 0);
  return report;
}

}  // namespace cdpipe
