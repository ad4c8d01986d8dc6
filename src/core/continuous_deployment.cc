#include "src/core/continuous_deployment.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/decision.h"
#include "src/obs/trace.h"

namespace cdpipe {

ContinuousDeployment::ContinuousDeployment(
    Options options, ContinuousOptions continuous_options,
    std::unique_ptr<Pipeline> pipeline, std::unique_ptr<LinearModel> model,
    std::unique_ptr<Optimizer> optimizer, std::unique_ptr<Metric> metric)
    : Deployment("continuous", std::move(options), std::move(pipeline),
                 std::move(model), std::move(optimizer), std::move(metric)),
      continuous_options_(std::move(continuous_options)) {
  CDPIPE_CHECK_GT(continuous_options_.proactive_every_chunks, 0u);
  CDPIPE_CHECK_GT(continuous_options_.sample_chunks, 0u);
}

bool ContinuousDeployment::ProactiveDue(size_t stream_index,
                                        const RawChunk& chunk) {
  if (continuous_options_.scheduler != nullptr) {
    return continuous_options_.scheduler->ShouldTrain(
        static_cast<double>(chunk.event_time_seconds));
  }
  return (stream_index + 1) % continuous_options_.proactive_every_chunks == 0;
}

Status ContinuousDeployment::AfterChunk(size_t stream_index,
                                        const RawChunk& chunk,
                                        const ChunkOutcome& outcome) {
  // Concept-drift alleviation: watch the per-chunk prequential error and
  // react immediately with a burst of recency-focused proactive training.
  if (continuous_options_.drift_detector != nullptr && outcome.rows > 0) {
    const DriftState state =
        continuous_options_.drift_detector->Observe(
            outcome.mean_error_signal);
    if (state == DriftState::kDrift) {
      obs::Record(obs::Decision::kDriftTrigger,
                  StrFormat("error=%.4f", outcome.mean_error_signal));
      if (load_state() == LoadState::kNormal) {
        CDPIPE_RETURN_NOT_OK(RunDriftBurst());
      } else {
        // Overload gating: a drift burst is the most expensive optional
        // work there is — shed it first and keep draining the backlog.
        // The detector stays reset so it can re-fire once load recovers.
        obs::Record(obs::Decision::kProactiveDeferred,
                    StrFormat("state=%s", LoadStateName(load_state())));
      }
      continuous_options_.drift_detector->Reset();
    }
  }

  // Feed the dynamic scheduler the measured prediction load (§4.1: pr =
  // queries per second of event time, pl = seconds per query).
  if (continuous_options_.scheduler != nullptr && outcome.rows > 0 &&
      outcome.event_period_seconds > 0.0) {
    continuous_options_.scheduler->OnPredictionLoad(
        static_cast<double>(outcome.rows) / outcome.event_period_seconds,
        outcome.prediction_seconds / static_cast<double>(outcome.rows));
  }

  if (!ProactiveDue(stream_index, chunk)) return Status::OK();

  // Overload gating: an iteration that comes due while the ingest queue is
  // pressured or overloaded is deferred — online learning and serving keep
  // running, the backlog drains first, and the next due iteration trains
  // as usual once load returns to normal.
  if (load_state() != LoadState::kNormal) {
    obs::Record(obs::Decision::kProactiveDeferred,
                StrFormat("state=%s", LoadStateName(load_state())));
    return Status::OK();
  }

  obs::Phase phase("core.proactive");
  CDPIPE_ASSIGN_OR_RETURN(
      DataManager::SampleSet sample,
      data_manager().SampleForTraining(continuous_options_.sample_chunks,
                                       &rng()));
  CDPIPE_RETURN_NOT_OK(trainer().RunIteration(sample));
  // A proactive step changed the deployed model: publish a fresh serving
  // epoch immediately (no-op when no serving tier is attached).
  pipeline_manager().PublishSnapshot();

  if (continuous_options_.scheduler != nullptr) {
    continuous_options_.scheduler->OnTrainingCompleted(
        static_cast<double>(chunk.event_time_seconds),
        trainer().last_duration_seconds());
  } else {
    // Static schedule: the next proactive sample is exactly
    // `proactive_every_chunks` chunks away and the rng state it will see is
    // the one we hold right now — predict its picks and stage any spilled
    // chunks while the stream keeps flowing.  (A drift burst in between
    // consumes rng draws and wastes the prefetch; correctness is
    // unaffected.)  No-op without a disk tier.
    data_manager().PrefetchForNextSample(
        continuous_options_.sample_chunks,
        continuous_options_.proactive_every_chunks, rng());
  }
  return Status::OK();
}

Status ContinuousDeployment::RunDriftBurst() {
  obs::Phase phase("core.drift_burst");
  // Sample only from the freshest chunks — they reflect the new concept.
  WindowSampler window(continuous_options_.drift_window_chunks);
  for (size_t i = 0; i < continuous_options_.drift_burst_iterations; ++i) {
    CDPIPE_RETURN_NOT_OK(trainer().RunIteration(data_manager().Resolve(
        window.Sample(data_manager().store().LiveIds(),
                      continuous_options_.sample_chunks, &rng()))));
  }
  pipeline_manager().PublishSnapshot();
  return Status::OK();
}

}  // namespace cdpipe
