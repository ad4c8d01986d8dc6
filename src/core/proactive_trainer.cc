#include "src/core/proactive_trainer.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/correlation.h"
#include "src/obs/decision.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace {

struct TrainerMetrics {
  obs::Counter* iterations;
  obs::Counter* rows_trained;
  obs::Histogram* iteration_seconds;
  obs::Histogram* rematerialize_seconds;
  obs::Histogram* sgd_step_seconds;

  static const TrainerMetrics& Get() {
    static const TrainerMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      TrainerMetrics m;
      m.iterations = registry.GetCounter("proactive.iterations");
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
                                   ExecutionEngine* engine, RetryPolicy retry)
    : pipeline_manager_(pipeline_manager), engine_(engine), retry_(retry) {
  CDPIPE_CHECK(pipeline_manager_ != nullptr);
  CDPIPE_CHECK(engine_ != nullptr);
}

Status ProactiveTrainer::RunIteration(const DataManager::SampleSet& sample) {
  static obs::Heartbeat* heartbeat =
      obs::HealthRegistry::Global().GetHeartbeat("trainer");
  obs::Heartbeat::WorkScope work(heartbeat);
  const TrainerMetrics& metrics = TrainerMetrics::Get();
  obs::Phase iteration("core.iteration", metrics.iteration_seconds);

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
    obs::Phase step("core.sgd_step", metrics.sgd_step_seconds);
    // The gradient is recomputed from scratch and only applied to the
    // model at the very end, so a failed attempt leaves the weights
    // untouched.
    CDPIPE_RETURN_NOT_OK(RunStep(
        "proactive.train_step", obs::Decision::kSgdStepSkipped,
        [&]() -> Status {
          CDPIPE_RETURN_NOT_OK(pipeline_manager_->TrainStep(
              batch, CostPhase::kProactiveTraining, engine_));
          // Correlated with the caller's scope: in a deployment, the chunk
          // whose arrival made this step due.
          obs::Record(obs::Decision::kTrainStep,
                      StrFormat("rows=%zu", batch.num_rows()));
          metrics.rows_trained->Add(static_cast<int64_t>(batch.num_rows()));
          return Status::OK();
        }));
  }

  metrics.iterations->Increment();
  last_duration_seconds_ = iteration.Stop();
  return Status::OK();
}

Result<std::vector<const FeatureData*>> ProactiveTrainer::Rebuild(
    const DataManager::SampleSet& sample,
    std::vector<FeatureChunk>* rebuilt) {
  const size_t num_remat = sample.to_rematerialize.size();
  obs::Phase phase("pipeline.rematerialize",
                   num_remat > 0 ? TrainerMetrics::Get().rematerialize_seconds
                                 : nullptr);
  // Engine workers do not inherit the caller's thread-local correlation;
  // capture it here so the fan-out tasks can re-establish it per chunk.
  const obs::CorrelationId base_corr = obs::CorrelationScope::Current();

  // Each chunk writes only its own slot, so failed chunks are identified
  // after the fan-out (by `rebuilt_ok`, which makes the fan-out's own
  // status redundant) and handled individually instead of aborting the
  // whole step on the first error.
  rebuilt->assign(num_remat, FeatureChunk{});
  std::vector<char> rebuilt_ok(num_remat, 0);
  (void)engine_->ParallelFor(num_remat, [&](size_t i) -> Status {
    obs::CorrelationScope scope(base_corr.deployment,
                                sample.to_rematerialize[i]->id);
    CDPIPE_ASSIGN_OR_RETURN(
        (*rebuilt)[i],
        pipeline_manager_->Rematerialize(*sample.to_rematerialize[i]));
    rebuilt_ok[i] = 1;
    obs::Record(obs::Decision::kRecompute);
    return Status::OK();
  });
  // Degradation, step 1: chunks that failed in the fan-out (including
  // tasks the engine's retry policy gave up on) get one fallback
  // recomputation from the raw chunk on the caller's thread.  Step 2:
  // chunks that still fail are dropped from this step with a recorded
  // warning — a smaller sample is strictly better than an aborted
  // deployment run.
  for (size_t i = 0; i < num_remat; ++i) {
    if (rebuilt_ok[i]) continue;
    const obs::CorrelationId chunk_corr{base_corr.deployment,
                                        sample.to_rematerialize[i]->id};
    const Status fallback = RetryWithBackoff(
        retry_, "proactive.rematerialize_fallback", [&]() -> Status {
          Result<FeatureChunk> chunk =
              pipeline_manager_->Rematerialize(*sample.to_rematerialize[i]);
          if (!chunk.ok()) return chunk.status();
          (*rebuilt)[i] = std::move(chunk).value();
          rebuilt_ok[i] = 1;
          return Status::OK();
        });
    if (fallback.ok()) {
      obs::Record(obs::Decision::kRecomputeFallback, chunk_corr);
    } else {
      obs::Record(obs::Decision::kChunkSkipped, chunk_corr, {}, fallback);
    }
  }

  std::vector<const FeatureData*> parts;
  parts.reserve(sample.materialized.size() + num_remat);
  for (const FeatureChunk* chunk : sample.materialized) {
    parts.push_back(&chunk->data);
  }
  for (size_t i = 0; i < num_remat; ++i) {
    if (rebuilt_ok[i]) parts.push_back(&(*rebuilt)[i].data);
  }
  return parts;
}

Status ProactiveTrainer::RunStep(const char* op_name, obs::Decision skipped,
                                 const std::function<Status()>& step) {
  const Status status = RetryWithBackoff(retry_, op_name, step);
  if (status.ok() || !IsRetryable(status)) return status;
  obs::Record(skipped, {}, status);
  return Status::OK();
}

}  // namespace cdpipe
