#ifndef CDPIPE_DEPLOYBENCH_OPEN_LOOP_CLIENT_H_
#define CDPIPE_DEPLOYBENCH_OPEN_LOOP_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/dataframe/chunk.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {
namespace deploybench {

/// What one client saw.  Latencies run from each request's *due* time, so
/// a stall also charges the requests queued up behind it.
struct ClientStats {
  int64_t attempted = 0;
  /// Requests that returned an error or were shed; they count as
  /// exceeding every latency limit (their latency sample is DBL_MAX).
  int64_t failed = 0;
  /// Answers whose row count does not match the request.
  int64_t bad_responses = 0;
  uint64_t stale_reads = 0;
  uint64_t torn_reads = 0;
  std::vector<double> latency_us;     ///< done - due
  std::vector<double> lag_us;         ///< sent - due (generator lateness)
  std::vector<double> age_us;         ///< sent - newest published_us
  std::vector<double> service_us;     ///< Response::latency_seconds
  std::vector<double> queue_wait_us;  ///< latency - service time

  void Append(const ClientStats& other);
};

/// One open-loop client thread: sends `queries` round-robin through the
/// service's request queue on a fixed schedule of `requests_per_second`,
/// never skipping a slot.  Just before each send it reads the newest
/// snapshot through its own SnapshotReader to record the served age.
class OpenLoopClient {
 public:
  OpenLoopClient(const serving::SnapshotPublisher* publisher,
                 serving::PredictionService* service,
                 const std::vector<RawChunk>* queries,
                 double requests_per_second);
  /// Stops and joins the thread if still running.
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  void Start();
  /// Stops after the in-flight request and returns the statistics.
  ClientStats Stop();

 private:
  void Loop();

  const serving::SnapshotPublisher* publisher_;
  serving::PredictionService* service_;
  const std::vector<RawChunk>* queries_;
  double requests_per_second_;
  std::atomic<bool> stop_{false};
  ClientStats stats_;  ///< written by the thread only until it is joined
  std::thread thread_;
};

}  // namespace deploybench
}  // namespace cdpipe

#endif  // CDPIPE_DEPLOYBENCH_OPEN_LOOP_CLIENT_H_
