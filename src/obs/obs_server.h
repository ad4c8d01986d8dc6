#ifndef CDPIPE_OBS_OBS_SERVER_H_
#define CDPIPE_OBS_OBS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/obs/event_journal.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {

/// Embedded HTTP observability endpoint: a tiny blocking-accept loop on one
/// background thread, plain POSIX sockets, no third-party dependencies.
/// Serves GET requests, one connection at a time (HTTP/1.0, Connection:
/// close) — this is an operator/scraper surface, not a serving tier.
///
/// Endpoints:
///   /metrics        Prometheus text exposition of the metrics registry
///   /healthz        liveness JSON (200 while the process runs)
///   /readyz         readiness JSON from the health registry; 503 when a
///                   busy subsystem is silent past the stall deadline
///   /events?n=K     newest K journal events as JSON (default 100)
///   /trace          Chrome-trace JSON of the live span recorder
class ObsServer {
 public:
  struct Options {
    /// Bind address.  Loopback by default: the obs plane is unauthenticated
    /// and must not be exposed beyond the host unless deliberately.
    std::string host = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    uint16_t port = 0;
    /// Stall deadline used by /readyz (kept in sync with the watchdog's
    /// when one is attached).
    double stall_deadline_seconds = 5.0;
    /// Sources; null = the process-wide instances.
    MetricsRegistry* metrics = nullptr;
    EventJournal* journal = nullptr;
    HealthRegistry* health = nullptr;
    /// When set, /readyz reports the watchdog's readiness verdict instead
    /// of re-deriving it from heartbeat ages.
    const Watchdog* watchdog = nullptr;
  };

  ObsServer();
  explicit ObsServer(Options options);
  ~ObsServer();

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Binds, listens, and starts the accept thread.  Fails with
  /// kUnavailable when the address cannot be bound.
  Status Start();
  /// Closes the listen socket and joins the accept thread (idempotent).
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  /// The bound port (resolved after Start() when options.port == 0).
  uint16_t port() const { return port_.load(std::memory_order_relaxed); }
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Routing without sockets, for unit tests: takes a raw request string
  /// ("GET /metrics HTTP/1.0\r\n\r\n") and returns the full HTTP response.
  std::string HandleRequest(const std::string& request);

 private:
  void AcceptLoop();
  std::string RouteGet(const std::string& path_and_query);

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_{0};
  int listen_fd_ = -1;
  std::thread thread_;
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_OBS_SERVER_H_
