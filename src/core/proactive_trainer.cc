#include "src/core/proactive_trainer.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/obs/correlation.h"
#include "src/obs/event_journal.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace {

struct TrainerMetrics {
  obs::Counter* iterations;
  obs::Counter* chunks_rematerialized;
  obs::Counter* chunks_skipped;
  obs::Counter* iterations_degraded;
  obs::Counter* iterations_deferred;
  obs::Counter* rows_trained;
  obs::Histogram* iteration_seconds;
  obs::Histogram* rematerialize_seconds;
  obs::Histogram* sgd_step_seconds;

  static const TrainerMetrics& Get() {
    static const TrainerMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      TrainerMetrics m;
      m.iterations = registry.GetCounter("proactive.iterations");
      m.chunks_rematerialized =
          registry.GetCounter("proactive.chunks_rematerialized");
      m.chunks_skipped = registry.GetCounter("proactive.chunks_skipped");
      m.iterations_degraded =
          registry.GetCounter("proactive.iterations_degraded");
      m.iterations_deferred = registry.GetCounter(
          "proactive.iterations_deferred",
          "Proactive iterations deferred while the ingest queue was loaded");
      m.rows_trained = registry.GetCounter("proactive.rows_trained");
      m.iteration_seconds =
          registry.GetHistogram("proactive.iteration_seconds");
      m.rematerialize_seconds =
          registry.GetHistogram("proactive.rematerialize_seconds");
      m.sgd_step_seconds = registry.GetHistogram("proactive.sgd_step_seconds");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

ProactiveTrainer::ProactiveTrainer(PipelineManager* pipeline_manager,
                                   ExecutionEngine* engine)
    : ProactiveTrainer(pipeline_manager, engine, Options{}) {}

ProactiveTrainer::ProactiveTrainer(PipelineManager* pipeline_manager,
                                   ExecutionEngine* engine, Options options)
    : pipeline_manager_(pipeline_manager),
      engine_(engine),
      options_(options) {
  CDPIPE_CHECK(pipeline_manager_ != nullptr);
  CDPIPE_CHECK(engine_ != nullptr);
}

Status ProactiveTrainer::RunIteration(const DataManager::SampleSet& sample) {
  CDPIPE_TRACE_SPAN("proactive.iteration", "training");
  static obs::Heartbeat* heartbeat =
      obs::HealthRegistry::Global().GetHeartbeat("trainer");
  obs::Heartbeat::WorkScope work(heartbeat);
  const TrainerMetrics& metrics = TrainerMetrics::Get();
  Stopwatch watch;

  std::vector<FeatureChunk> rebuilt;
  CDPIPE_ASSIGN_OR_RETURN(const std::vector<const FeatureData*> parts,
                          Rebuild(sample, &rebuilt));

  // Zero-copy SGD step: the sampled chunks are trained on in place through
  // a BatchView — no merged FeatureData, no per-row copies, and mixed
  // nominal dims widen by picking the max as the view dim.
  uint32_t dim = 0;
  CDPIPE_ASSIGN_OR_RETURN(const std::vector<BatchView::RowRef> rows,
                          BatchView::CollectRows(parts, &dim));
  const BatchView batch(dim, rows);
  if (!batch.empty()) {
    CDPIPE_TRACE_SPAN("proactive.sgd_step", "training");
    Stopwatch sgd_watch;
    // The gradient is recomputed from scratch and only applied to the
    // model at the very end, so a failed attempt leaves the weights
    // untouched.
    CDPIPE_RETURN_NOT_OK(RunStep(
        "proactive.train_step", "sgd_step_skipped", [&]() -> Status {
          CDPIPE_RETURN_NOT_OK(pipeline_manager_->TrainStep(
              batch, CostPhase::kProactiveTraining, engine_));
          // Correlated with the caller's scope: in a deployment, the chunk
          // whose arrival made this step due.
          obs::EventJournal::Global().Append(
              obs::EventKind::kTrainStep,
              StrFormat("rows=%zu", batch.num_rows()).c_str());
          return Status::OK();
        }));
    metrics.sgd_step_seconds->Observe(sgd_watch.ElapsedSeconds());
  }

  last_duration_seconds_ = watch.ElapsedSeconds();
  metrics.iterations->Increment();
  metrics.rows_trained->Add(static_cast<int64_t>(batch.num_rows()));
  metrics.iteration_seconds->Observe(last_duration_seconds_);
  return Status::OK();
}

Result<std::vector<const FeatureData*>> ProactiveTrainer::Rebuild(
    const DataManager::SampleSet& sample,
    std::vector<FeatureChunk>* rebuilt) {
  CDPIPE_TRACE_SPAN("proactive.rematerialize", "training");
  // Engine workers do not inherit the caller's thread-local correlation;
  // capture it here so the fan-out tasks can re-establish it per chunk.
  const obs::CorrelationId base_corr = obs::CorrelationScope::Current();
  const TrainerMetrics& metrics = TrainerMetrics::Get();
  Stopwatch remat_watch;

  // Each chunk writes only its own slot, so failed chunks are identified
  // after the fan-out and handled individually instead of aborting the
  // whole step on the first error.
  const size_t num_remat = sample.to_rematerialize.size();
  rebuilt->assign(num_remat, FeatureChunk{});
  std::vector<char> rebuilt_ok(num_remat, 0);
  const Status engine_status =
      engine_->ParallelFor(num_remat, [&](size_t i) -> Status {
        obs::CorrelationScope scope(base_corr.deployment,
                                    sample.to_rematerialize[i]->id);
        CDPIPE_ASSIGN_OR_RETURN(
            (*rebuilt)[i],
            pipeline_manager_->Rematerialize(*sample.to_rematerialize[i]));
        rebuilt_ok[i] = 1;
        obs::EventJournal::Global().Append(obs::EventKind::kRecompute);
        return Status::OK();
      });
  if (!engine_status.ok() && !options_.degrade_on_failure) {
    return engine_status;
  }
  // Degradation, step 1: chunks that failed in the fan-out (including
  // tasks the engine's retry policy gave up on) get one fallback
  // recomputation from the raw chunk on the caller's thread.  The engine
  // pool is drained at this point, so the fallback may shard the transform
  // across it (the fan-out tasks above must not: the pool does not nest).
  // Step 2: chunks that still fail are dropped from this step with a
  // recorded warning — a smaller sample is strictly better than an aborted
  // deployment run.
  for (size_t i = 0; i < num_remat; ++i) {
    if (rebuilt_ok[i]) continue;
    const obs::CorrelationId chunk_corr{base_corr.deployment,
                                        sample.to_rematerialize[i]->id};
    const Status fallback = RetryWithBackoff(
        options_.retry, "proactive.rematerialize_fallback", [&]() -> Status {
          Result<FeatureChunk> chunk = pipeline_manager_->Rematerialize(
              *sample.to_rematerialize[i], engine_);
          if (!chunk.ok()) return chunk.status();
          (*rebuilt)[i] = std::move(chunk).value();
          rebuilt_ok[i] = 1;
          return Status::OK();
        });
    if (fallback.ok()) {
      obs::EventJournal::Global().Append(obs::EventKind::kRecompute,
                                         chunk_corr, "fallback");
    } else {
      if (!options_.degrade_on_failure) return fallback;
      metrics.chunks_skipped->Increment();
      obs::EventJournal::Global().Append(obs::EventKind::kDegrade, chunk_corr,
                                         "chunk_skipped");
      CDPIPE_LOG(Warning) << "training: dropping chunk " << chunk_corr.entity
                          << " after failed re-materialization: "
                          << fallback.ToString();
    }
  }
  if (num_remat > 0) {
    metrics.rematerialize_seconds->Observe(remat_watch.ElapsedSeconds());
  }

  std::vector<const FeatureData*> parts;
  parts.reserve(sample.materialized.size() + num_remat);
  for (const FeatureChunk* chunk : sample.materialized) {
    parts.push_back(&chunk->data);
  }
  int64_t rematerialized = 0;
  for (size_t i = 0; i < num_remat; ++i) {
    if (!rebuilt_ok[i]) continue;
    parts.push_back(&(*rebuilt)[i].data);
    ++rematerialized;
  }
  metrics.chunks_rematerialized->Add(rematerialized);
  return parts;
}

Status ProactiveTrainer::RunStep(const char* op_name,
                                 const char* skipped_detail,
                                 const std::function<Status()>& step) {
  const Status status = RetryWithBackoff(options_.retry, op_name, step);
  if (status.ok()) return status;
  if (!options_.degrade_on_failure || !IsRetryable(status)) return status;
  TrainerMetrics::Get().iterations_degraded->Increment();
  obs::EventJournal::Global().Append(obs::EventKind::kDegrade, skipped_detail);
  CDPIPE_LOG(Warning) << "training: skipping " << op_name
                      << " after exhausted retries: " << status.ToString();
  return Status::OK();
}

void ProactiveTrainer::RecordDeferred(LoadState state) {
  TrainerMetrics::Get().iterations_deferred->Increment();
  obs::EventJournal::Global().Append(
      obs::EventKind::kDegrade,
      StrFormat("proactive_deferred state=%s", LoadStateName(state)).c_str());
  CDPIPE_LOG(Info) << "proactive training: iteration deferred, ingest "
                   << LoadStateName(state);
}

}  // namespace cdpipe
