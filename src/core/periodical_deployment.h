#ifndef CDPIPE_CORE_PERIODICAL_DEPLOYMENT_H_
#define CDPIPE_CORE_PERIODICAL_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/ml/trainer.h"
#include "src/scheduler/scheduler.h"

namespace cdpipe {

/// The **periodical** deployment baseline (§5.2): online learning between
/// retrainings, plus a full retraining over all available historical data
/// every `retrain_every_chunks` chunks (every 10 days for URL, monthly for
/// Taxi in the paper).  Supports TFX-style warm starting: the retraining
/// reuses the deployed model weights, learning-rate adaptation state, and
/// (implicitly — they are shared) the pipeline statistics.
///
/// The expense of this strategy is intrinsic: every retraining must
/// preprocess the entire history again (feature chunks are not materialized
/// in the classic periodical platform; configure `store.max_materialized_
/// chunks = 0` to reproduce that) and then iterate SGD to convergence.
///
/// A retrain takes the shared training path with the whole live history as
/// its selection, so it re-materializes, retries and degrades like a
/// proactive step: an unrecoverable chunk is left out of the pass, and a
/// pass that keeps failing transiently is skipped (the deployed model
/// stays) instead of aborting the run.
class PeriodicalDeployment final : public Deployment {
 public:
  struct PeriodicalOptions {
    size_t retrain_every_chunks = 1000;
    /// TFX-style warm starting (§5.2): start retraining from the deployed
    /// weights and optimizer state instead of from scratch.
    bool warm_start = true;
    BatchTrainer::Options retrain;

    /// Velox-style triggering (paper §6: "Velox monitors the error rate of
    /// the model ... once the error rate exceeds a predefined threshold,
    /// Velox initiates a retraining"): when > 0, a retraining also fires as
    /// soon as the per-chunk prequential error, smoothed by an EWMA with
    /// factor 0.2, exceeds this threshold, independent of the fixed
    /// interval.
    double retrain_error_threshold = 0.0;
    /// Cool-down so a slow-to-recover error cannot trigger back-to-back
    /// retrainings.
    size_t min_chunks_between_retrains = 10;
  };

  PeriodicalDeployment(Options options, PeriodicalOptions periodical_options,
                       std::unique_ptr<Pipeline> pipeline,
                       std::unique_ptr<LinearModel> model,
                       std::unique_ptr<Optimizer> optimizer,
                       std::unique_ptr<Metric> metric);

 protected:
  Status AfterChunk(size_t stream_index, const RawChunk& chunk,
                    const ChunkOutcome& outcome) override;

 private:
  Status Retrain();

  PeriodicalOptions periodical_options_;
  EwmaTracker smoothed_error_;
  int64_t last_retrain_chunk_ = -1;
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_PERIODICAL_DEPLOYMENT_H_
