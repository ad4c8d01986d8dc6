#include "src/core/periodical_deployment.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/decision.h"
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
    smoothed_error_.Observe(outcome.mean_error_signal);
    const bool cooled_down =
        last_retrain_chunk_ < 0 ||
        static_cast<int64_t>(stream_index) - last_retrain_chunk_ >=
            static_cast<int64_t>(
                periodical_options_.min_chunks_between_retrains);
    if (cooled_down && smoothed_error_.value() >
                           periodical_options_.retrain_error_threshold) {
      due = true;
    }
  }

  if (!due) return Status::OK();
  last_retrain_chunk_ = static_cast<int64_t>(stream_index);
  return Retrain();
}

Status PeriodicalDeployment::Retrain() {
  obs::Phase phase("core.retrain");
  // Full retraining: train on the *entire* available history.  Chunks that
  // happen to be materialized are reused; in the authentic periodical
  // configuration (max_materialized_chunks = 0) everything is re-transformed
  // from raw data — the dominant cost the paper attributes to this strategy.
  // FetchRaw (in Resolve) pins disk-tier chunks until the next ingest, long
  // enough for the pass below.
  const DataManager::SampleSet history =
      data_manager().Resolve(data_manager().store().LiveIds());
  std::vector<FeatureChunk> rebuilt;
  CDPIPE_ASSIGN_OR_RETURN(const std::vector<const FeatureData*> parts,
                          trainer().Rebuild(history, &rebuilt));
  if (parts.empty()) return Status::OK();

  // Each attempt trains fresh clones of the deployed state on a copy of the
  // rng, so a failed pass leaves the deployment untouched; only a
  // successful pass is redeployed and commits the rng.
  return trainer().RunStep("deployment.retrain", obs::Decision::kRetrainSkipped,
                           [&]() -> Status {
    // Warm start (TFX): clone the deployed model + optimizer state.
    // Cold start: fresh weights, reset adaptation state.
    std::unique_ptr<LinearModel> model;
    std::unique_ptr<Optimizer> optimizer =
        pipeline_manager().optimizer().Clone();
    if (periodical_options_.warm_start) {
      model = std::make_unique<LinearModel>(pipeline_manager().model());
    } else {
      model =
          std::make_unique<LinearModel>(pipeline_manager().model().options());
      optimizer->Reset();
    }
    Rng pass_rng = rng();
    {
      CostModel::ScopedTimer timer(&cost(), CostPhase::kRetraining,
                                   "ml.retrain");
      CDPIPE_ASSIGN_OR_RETURN(
          BatchTrainer::Stats stats,
          BatchTrainer(periodical_options_.retrain)
              .Train(parts, model.get(), optimizer.get(), &pass_rng,
                     &engine()));
      cost().AddWork(CostPhase::kRetraining, stats.examples_visited);
    }
    rng() = pass_rng;
    pipeline_manager().Redeploy(std::move(model), std::move(optimizer));
    // Correlated with the chunk whose arrival made the retraining due.
    obs::Record(obs::Decision::kRetrain);
    return Status::OK();
  });
}

}  // namespace cdpipe
