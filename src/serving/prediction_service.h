#ifndef CDPIPE_SERVING_PREDICTION_SERVICE_H_
#define CDPIPE_SERVING_PREDICTION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/pipeline/pipeline.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {
namespace serving {

/// The prediction front-end: a pool of request-loop workers answering
/// single-record and micro-batched prediction requests against the
/// publisher's current snapshot while the deployment loop keeps ingesting
/// and training.
///
/// Each worker owns a `SnapshotReader`, so the steady-state request path
/// costs ONE atomic epoch load on top of the transform + predict work —
/// model refresh never stalls a request and requests never stall a publish.
/// A request that catches epoch N mid-publish of N+1 completes entirely on
/// N (its reader holds the reference); staleness is bounded by one
/// in-flight request.
///
/// Every request runs under the "serving" heartbeat (the watchdog flips
/// /readyz if the loop wedges mid-request), a per-request CorrelationScope
/// (deployment id + request id) and a `serving.request` trace span, and
/// crosses the `serving.slow_request` / `serving.request` fault sites so
/// the scenario suite can wedge or fail it deterministically.
class PredictionService {
 public:
  struct Options {
    /// Request-loop worker threads.
    int num_threads = 2;
    /// Bounded request queue: producers block when it is full (closed-loop
    /// backpressure, never unbounded memory).
    size_t queue_capacity = 64;
    /// Admission timeout for a producer blocked on a full queue: after this
    /// many wall seconds the request is shed (Unavailable, counted in
    /// `serving.shed`) instead of waiting further — the serving-tier twin
    /// of the ingest queue's block-with-timeout policy.  Negative = block
    /// until a slot frees (the legacy closed-loop behavior).
    double admission_timeout_seconds = -1.0;
    /// Correlation deployment id stamped on request spans/journal entries.
    uint32_t deployment_id = 0;
  };

  /// One answered request.
  struct Response {
    /// Snapshot epoch that answered the request.
    uint64_t epoch = 0;
    /// Service-assigned request id (dense from 1).
    int64_t request_id = 0;
    /// Raw model score per surviving row (the same value the in-loop
    /// prequential evaluate feeds Observe — serve-then-train equivalence
    /// compares these bitwise).
    std::vector<double> scores;
    /// Thresholded class labels (sign of the score).
    std::vector<double> labels;
    /// Labels carried through the transform (for prequential evaluation
    /// at the caller; empty when the input rows carried none).
    std::vector<double> true_labels;
    /// Rows the pipeline dropped (malformed / filtered).
    size_t rows_dropped = 0;
    /// Wall-clock seconds from dequeue (or inline call) to completion.
    double latency_seconds = 0;
  };

  PredictionService(const SnapshotPublisher* publisher, Options options);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Starts the request-loop workers.  FailedPrecondition if running.
  Status Start();
  /// Stops the workers; queued-but-unanswered requests fail Unavailable.
  /// Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Blocking micro-batch prediction through the request loop.  `chunk`
  /// must stay alive until the call returns (it is borrowed, not copied).
  /// Unavailable if the service is not running, no snapshot has been
  /// published yet, or the service stops before the request is served.
  Result<Response> Predict(const RawChunk& chunk);

  /// Inline request path against a caller-owned reader: same metrics,
  /// span, fault sites, and response shape as the queued path, but
  /// executed on the calling thread with no queue hop.  This is what the
  /// closed-loop bench readers call — and what the workers themselves run
  /// per request.
  Result<Response> PredictWith(SnapshotReader* reader,
                               const RawChunk& chunk) const;

  /// The deployment's serve-then-train request: `features` are what the
  /// online path produced from `chunk` while the live pipeline was at
  /// statistics version `pipeline_version`.  When the snapshot that
  /// answers was frozen at that version, its pipeline would reproduce
  /// `features` bit for bit, so the request scores them with the
  /// snapshot's model instead of transforming `chunk` again.  Any other
  /// snapshot (an older epoch, as when overload gating skipped the
  /// chunk's publish) transforms `chunk` like a client request.  Metrics,
  /// span, fault sites and response shape are the inline path's.
  Result<Response> PredictWith(SnapshotReader* reader, const RawChunk& chunk,
                               const FeatureData& features,
                               uint64_t pipeline_version) const;

  const Options& options() const { return options_; }

 private:
  struct Pending {
    const RawChunk* chunk = nullptr;
    int64_t request_id = 0;
    std::promise<Result<Response>> promise;
  };

  void WorkerLoop();
  /// Answers one request from `reader`'s snapshot.  `online`, when
  /// non-null, holds `chunk`'s features at statistics version
  /// `online_version` (see the four-argument PredictWith).
  Result<Response> ServeOne(SnapshotReader* reader, const RawChunk& chunk,
                            int64_t request_id,
                            const FeatureData* online = nullptr,
                            uint64_t online_version = 0) const;

  const SnapshotPublisher* publisher_;
  Options options_;

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::unique_ptr<Pending>> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  // Mutable: the inline request path (PredictWith / ServeOne) is logically
  // const — it never touches service state beyond this id counter.
  mutable std::atomic<int64_t> next_request_id_{0};
  /// Peak queue depth (guarded by mu_, exported as a gauge).
  size_t queue_high_watermark_ = 0;
};

}  // namespace serving
}  // namespace cdpipe

#endif  // CDPIPE_SERVING_PREDICTION_SERVICE_H_
