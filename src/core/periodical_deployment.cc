#include "src/core/periodical_deployment.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/core/proactive_trainer.h"
#include "src/obs/correlation.h"
#include "src/obs/event_journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {

PeriodicalDeployment::PeriodicalDeployment(
    Options options, PeriodicalOptions periodical_options,
    std::unique_ptr<Pipeline> pipeline, std::unique_ptr<LinearModel> model,
    std::unique_ptr<Optimizer> optimizer, std::unique_ptr<Metric> metric)
    : Deployment("periodical", std::move(options), std::move(pipeline),
                 std::move(model), std::move(optimizer), std::move(metric)),
      periodical_options_(std::move(periodical_options)) {
  CDPIPE_CHECK_GT(periodical_options_.retrain_every_chunks, 0u);
}

Status PeriodicalDeployment::AfterChunk(size_t stream_index,
                                        const RawChunk& chunk,
                                        const ChunkOutcome& outcome) {
  (void)chunk;
  bool due =
      (stream_index + 1) % periodical_options_.retrain_every_chunks == 0;

  // Velox-style error-threshold trigger (see PeriodicalOptions).
  if (periodical_options_.retrain_error_threshold > 0.0 &&
      outcome.rows > 0) {
    const double alpha = periodical_options_.error_smoothing;
    if (!smoothed_error_initialized_) {
      smoothed_error_ = outcome.mean_error_signal;
      smoothed_error_initialized_ = true;
    } else {
      smoothed_error_ =
          alpha * outcome.mean_error_signal + (1.0 - alpha) * smoothed_error_;
    }
    const bool cooled_down =
        last_retrain_chunk_ < 0 ||
        static_cast<int64_t>(stream_index) - last_retrain_chunk_ >=
            static_cast<int64_t>(
                periodical_options_.min_chunks_between_retrains);
    if (smoothed_error_ > periodical_options_.retrain_error_threshold &&
        cooled_down) {
      due = true;
    }
  }

  if (!due) return Status::OK();
  last_retrain_chunk_ = static_cast<int64_t>(stream_index);
  return Retrain();
}

Status PeriodicalDeployment::Retrain() {
  CDPIPE_TRACE_SPAN("deployment.retrain", "deployment");
  // Full retraining: preprocess the *entire* available history.  Chunks that
  // happen to be materialized are reused; in the authentic periodical
  // configuration (max_materialized_chunks = 0) everything is re-transformed
  // from raw data — the dominant cost the paper attributes to this strategy.
  const std::vector<ChunkId> live = data_manager().store().LiveIds();
  std::vector<FeatureChunk> rebuilt;
  std::vector<const FeatureData*> parts;
  parts.reserve(live.size());

  std::vector<const RawChunk*> to_transform;
  for (ChunkId id : live) {
    if (const FeatureChunk* features = data_manager().store().GetFeatures(id)) {
      parts.push_back(&features->data);
    } else {
      // FetchRaw pins disk-tier chunks until the next ingest — long enough
      // for the retraining pass below.  A null here means the disk tier
      // degraded (corrupt file dropped, read failure): retrain on the rest.
      const RawChunk* raw = data_manager().mutable_store().FetchRaw(id);
      if (raw == nullptr) {
        CDPIPE_CHECK(data_manager().store().spilling_enabled())
            << "live chunk " << id << " has no raw bytes";
        obs::EventJournal::Global().Append(
            obs::EventKind::kDegrade, obs::CorrelationScope::WithEntity(id),
            "retrain_chunk_unavailable");
        continue;
      }
      to_transform.push_back(raw);
    }
  }
  rebuilt.resize(to_transform.size());
  CDPIPE_RETURN_NOT_OK(
      engine().ParallelFor(to_transform.size(), [&](size_t i) -> Status {
        CDPIPE_ASSIGN_OR_RETURN(
            rebuilt[i], pipeline_manager().Rematerialize(*to_transform[i]));
        return Status::OK();
      }));
  for (const FeatureChunk& chunk : rebuilt) parts.push_back(&chunk.data);
  if (parts.empty()) return Status::OK();

  // Warm start (TFX): clone the deployed model + optimizer state.
  // Cold start: fresh weights, reset adaptation state.
  std::unique_ptr<LinearModel> model;
  std::unique_ptr<Optimizer> optimizer =
      pipeline_manager().optimizer().Clone();
  if (periodical_options_.warm_start) {
    model = std::make_unique<LinearModel>(pipeline_manager().model());
  } else {
    model = std::make_unique<LinearModel>(pipeline_manager().model().options());
    optimizer->Reset();
  }

  {
    CostModel::ScopedTimer timer(&cost(), CostPhase::kRetraining);
    BatchTrainer trainer(periodical_options_.retrain);
    CDPIPE_ASSIGN_OR_RETURN(
        BatchTrainer::Stats stats,
        trainer.Train(parts, model.get(), optimizer.get(), &rng(), &engine()));
    cost().AddWork(CostPhase::kRetraining, stats.examples_visited);
  }

  pipeline_manager().Redeploy(std::move(model), std::move(optimizer));
  obs::MetricsRegistry::Global()
      .GetCounter("deployment.retrainings")
      ->Increment();
  // Correlated with the chunk whose arrival made the retraining due.
  obs::EventJournal::Global().Append(obs::EventKind::kTrainStep, "retrain");
  return Status::OK();
}

}  // namespace cdpipe
