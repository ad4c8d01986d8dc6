#ifndef CDPIPE_CORE_CONTINUOUS_DEPLOYMENT_H_
#define CDPIPE_CORE_CONTINUOUS_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/drift/drift_detector.h"
#include "src/sampling/sampler.h"
#include "src/scheduler/scheduler.h"

namespace cdpipe {

/// The paper's **continuous** deployment: online learning on arriving data
/// plus scheduled proactive training over samples of the historical data —
/// no full retraining, ever.
class ContinuousDeployment final : public Deployment {
 public:
  struct ContinuousOptions {
    /// Static schedule: run proactive training every k incoming chunks
    /// (the paper's URL/Taxi runs use the equivalent of k = 5).  Ignored
    /// when `scheduler` is provided.
    size_t proactive_every_chunks = 5;
    /// Chunks per proactive sample (s in the μ analysis).
    size_t sample_chunks = 100;
    /// Optional time-based scheduler (static or dynamic, §4.1).  When set,
    /// chunk event times drive the schedule instead of chunk counts.
    std::unique_ptr<Scheduler> scheduler;

    /// Native concept-drift alleviation (the paper's future work, §7):
    /// when set, the detector watches the per-chunk prequential error; a
    /// confirmed drift triggers `drift_burst_iterations` extra proactive
    /// iterations sampled from the most recent `drift_window_chunks`
    /// chunks (recent data reflects the new concept), then the detector is
    /// reset.
    std::unique_ptr<DriftDetector> drift_detector;
    size_t drift_burst_iterations = 3;
    size_t drift_window_chunks = 20;
  };

  ContinuousDeployment(Options options, ContinuousOptions continuous_options,
                       std::unique_ptr<Pipeline> pipeline,
                       std::unique_ptr<LinearModel> model,
                       std::unique_ptr<Optimizer> optimizer,
                       std::unique_ptr<Metric> metric);

 protected:
  Status AfterChunk(size_t stream_index, const RawChunk& chunk,
                    const ChunkOutcome& outcome) override;

 private:
  bool ProactiveDue(size_t stream_index, const RawChunk& chunk);
  Status RunDriftBurst();

  ContinuousOptions continuous_options_;
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_CONTINUOUS_DEPLOYMENT_H_
