#ifndef CDPIPE_OBS_HEALTH_H_
#define CDPIPE_OBS_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/event_journal.h"

namespace cdpipe {
namespace obs {

/// Liveness signal published by one subsystem (engine pool, trainer,
/// ingest, deployment loop).  Beating is a pair of relaxed atomic stores —
/// cheap enough for per-task use.
///
/// Stall semantics are progress-based, not idle-based: a subsystem is only
/// considered stalled when it has work in flight (`busy() > 0`) and its
/// last beat is older than the watchdog deadline.  An idle subsystem
/// (workers parked on a condition variable, deployment between runs) is
/// healthy no matter how old its last beat is.
class Heartbeat {
 public:
  /// Records progress: refreshes the beat timestamp (Tracer timebase) and
  /// bumps the beat count.
  void Beat();

  /// Marks work in flight.  Pair every BeginWork with an EndWork; both
  /// also count as a beat.
  void BeginWork();
  void EndWork();

  int64_t last_beat_us() const {
    return last_beat_us_.load(std::memory_order_relaxed);
  }
  uint64_t beats() const { return beats_.load(std::memory_order_relaxed); }
  int64_t busy() const { return busy_.load(std::memory_order_relaxed); }

  /// RAII BeginWork/EndWork.
  class WorkScope {
   public:
    explicit WorkScope(Heartbeat* heartbeat) : heartbeat_(heartbeat) {
      if (heartbeat_ != nullptr) heartbeat_->BeginWork();
    }
    ~WorkScope() {
      if (heartbeat_ != nullptr) heartbeat_->EndWork();
    }
    WorkScope(const WorkScope&) = delete;
    WorkScope& operator=(const WorkScope&) = delete;

   private:
    Heartbeat* heartbeat_;
  };

 private:
  std::atomic<int64_t> last_beat_us_{-1};  ///< -1 = never beat
  std::atomic<uint64_t> beats_{0};
  std::atomic<int64_t> busy_{0};
};

/// Point-in-time view of one subsystem for /readyz and test assertions.
struct SubsystemHealth {
  std::string name;
  int64_t last_beat_us = -1;
  uint64_t beats = 0;
  int64_t busy = 0;
  double age_seconds = 0.0;  ///< now - last beat (0 when never beat)
  bool stalled = false;      ///< busy and silent past the deadline
};

/// Thread-safe name → heartbeat registry, mirroring MetricsRegistry:
/// registration takes a mutex and returns a stable pointer; beating is
/// lock-free.  Use Global() in production code and private instances in
/// tests.
class HealthRegistry {
 public:
  HealthRegistry() = default;
  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  static HealthRegistry& Global();

  Heartbeat* GetHeartbeat(const std::string& subsystem);

  /// All subsystems, sorted by name, with stall state evaluated against
  /// `stall_deadline_seconds` at `now_us` (Tracer timebase).
  std::vector<SubsystemHealth> Snapshot(double stall_deadline_seconds,
                                        int64_t now_us) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Heartbeat>> heartbeats_;
};

/// JSON for the /readyz endpoint:
///   {"ready":true,"subsystems":[{"name":...,"busy":1,"age_seconds":...,
///    "beats":123,"stalled":false},...]}
std::string HealthToJson(const std::vector<SubsystemHealth>& subsystems,
                         bool ready);

/// Plaintext body for a 503 /readyz: one `not ready:` line naming each
/// stalled subsystem (with busy count and silence age) and, when
/// `ingest_overloaded` is set, the ingest admission queue.  Readable from a
/// probe log without a JSON parser:
///   not ready: stalled=trainer (busy=1, silent 6.2s); ingest overloaded
std::string NotReadyReason(const std::vector<SubsystemHealth>& subsystems,
                           bool ingest_overloaded);

/// Background stall detector.  Polls the health registry; when a busy
/// subsystem goes silent past the deadline it flips readiness and records
/// the `stall` decision (journal detail: the subsystem name; `obs.stalls`;
/// a warning).  When the subsystem beats again readiness is restored and
/// `recover` is recorded.
class Watchdog {
 public:
  struct Options {
    /// A busy subsystem silent for longer than this is stalled.
    double stall_deadline_seconds = 5.0;
    double poll_interval_seconds = 0.25;
    /// Registry/journal to watch; null = the globals.
    HealthRegistry* health = nullptr;
    EventJournal* journal = nullptr;
  };

  Watchdog();
  explicit Watchdog(Options options);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the background poll thread (no-op when already running).
  void Start();
  /// Stops and joins it.
  void Stop();

  /// One poll pass, runnable inline for deterministic tests (also what the
  /// background thread executes).
  void PollOnce();

  /// False while any subsystem is stalled.  Mirrored into the `obs.ready`
  /// gauge (1/0).
  bool ready() const { return ready_.load(std::memory_order_relaxed); }

  const Options& options() const { return options_; }

 private:
  void Loop();

  Options options_;
  std::atomic<bool> ready_{true};

  std::mutex mu_;  ///< guards stalled_ and the thread lifecycle
  std::set<std::string> stalled_;
  std::thread thread_;
  bool running_ = false;
  std::condition_variable wake_;
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_HEALTH_H_
