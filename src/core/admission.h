#ifndef CDPIPE_CORE_ADMISSION_H_
#define CDPIPE_CORE_ADMISSION_H_

#include <cstdint>
#include <deque>

#include "src/dataframe/chunk.h"

namespace cdpipe {

/// Ingest load state, derived from the admission queue depth with
/// hysteresis.  Gates proactive training and serving publish cadence: under
/// pressure the deployment keeps serving and online-learning but defers the
/// optional work (proactive iterations, per-chunk republishes) until the
/// backlog drains.
enum class LoadState : uint8_t {
  kNormal = 0,     ///< depth at or below the low watermark
  kPressured = 1,  ///< between watermarks, rising
  kOverloaded = 2, ///< reached the high watermark; sticky until <= low
};

const char* LoadStateName(LoadState state);

/// What to do with an arriving chunk when the bounded ingest queue is under
/// pressure or full.
enum class AdmissionPolicy : uint8_t {
  /// Producer waits (in virtual time) up to `block_timeout_seconds` for a
  /// queue slot; the incoming chunk is shed when the timeout expires first.
  kBlock = 0,
  /// Full queue: drop the oldest queued chunk to admit the newest (fresh
  /// data wins — the continuous-learning default for drifting streams).
  kShedOldest,
  /// Full queue: drop the incoming chunk (queued work wins).
  kShedNewest,
  /// Admit everything that fits, but flag chunks arriving under pressure as
  /// degraded: the deployment skips their feature materialization (they stay
  /// recoverable via dynamic materialization).  A hard-full queue still
  /// sheds the incoming chunk — capacity is a memory bound, not a hint.
  kDegrade,
};

const char* AdmissionPolicyName(AdmissionPolicy policy);

/// Bounded ingest admission between the stream readers and the deployment
/// loop: a FIFO queue with a hard capacity, watermark-driven load states,
/// and a selectable overflow policy.
///
/// All timing is *virtual*: chunk arrival times come from the stream's
/// event clock (the traffic shaper writes them) and the consumer drains one
/// chunk every `service_seconds_per_chunk` of that same clock.  Admission
/// decisions therefore depend only on (arrival times, options) — never on
/// wall clock or thread scheduling — so shed/degrade counts are exactly
/// reproducible, at any engine thread count, and a control run whose queue
/// never fills admits every chunk in order (bit-identical to the unshaped
/// path).
///
/// Single-threaded by contract: the deployment Run thread owns the
/// controller (it is the simulation driver — it pops ready chunks, processes
/// them, and offers arrivals).  The gauges it exports
/// (`ingest.queue_depth`, `ingest.queue_high_watermark`,
/// `ingest.load_state`) are lock-free and readable from the obs plane.
class AdmissionController {
 public:
  struct Options {
    /// Hard bound on queued chunks — the ingest memory budget.
    size_t queue_capacity = 8;
    /// Depth at which the state becomes kOverloaded.  0 = 3/4 capacity
    /// (at least 1).
    size_t high_watermark = 0;
    /// Depth at or below which the state returns to kNormal.  0 = 1/4
    /// capacity.  Must be < high_watermark after defaulting.
    size_t low_watermark = 0;
    AdmissionPolicy policy = AdmissionPolicy::kBlock;
    /// kBlock: virtual seconds a producer waits for a slot before the
    /// incoming chunk is shed.
    double block_timeout_seconds = 0.0;
    /// Virtual seconds the consumer spends per admitted chunk (the drain
    /// model that turns arrival times into queue depths).
    double service_seconds_per_chunk = 1.0;
  };

  /// Exact per-run accounting (mirrored into global `ingest.*` metrics).
  struct Counters {
    int64_t offered = 0;          ///< chunks presented for admission
    int64_t admitted = 0;         ///< chunks that entered the queue
    int64_t degraded_admits = 0;  ///< admitted flagged skip-materialization
    int64_t shed_oldest = 0;      ///< queued chunks displaced by newer ones
    int64_t shed_newest = 0;      ///< arrivals dropped at a full queue
    int64_t shed_timeout = 0;     ///< arrivals dropped after a block timeout
    int64_t pressure_changes = 0; ///< load-state transitions
    int64_t peak_queue_depth = 0; ///< high watermark of the queue depth

    /// Chunks dropped, all reasons.
    int64_t shed() const { return shed_oldest + shed_newest + shed_timeout; }
  };

  enum class Decision : uint8_t {
    kAdmitted,
    kAdmittedDegraded,
    /// Admitted; the oldest queued chunk was shed to make room.
    kAdmittedReplacedOldest,
    /// The incoming chunk was shed (kShedNewest, or kDegrade at capacity).
    kShed,
    /// kBlock policy and the queue is full: the caller must drain a chunk
    /// (virtually waiting for its completion) and re-offer, or give up via
    /// ShedBlocked once the timeout is unaffordable.  `*chunk` is untouched.
    kWouldBlock,
  };

  /// One chunk handed back to the consumer.
  struct Admitted {
    RawChunk chunk;
    /// kDegrade admission under pressure: skip feature materialization.
    bool degraded = false;
    /// Virtual time at which the consumer finishes this chunk.
    double completion_seconds = 0.0;
  };

  explicit AdmissionController(Options options);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Producer side: offers a chunk arriving at `arrival_seconds` (clamped
  /// monotonic).  Moves `*chunk` into the queue on any kAdmitted* decision;
  /// leaves it untouched on kShed / kWouldBlock.
  Decision Offer(RawChunk* chunk, double arrival_seconds);

  /// kBlock bookkeeping: records the incoming chunk as shed after its
  /// virtual wait exceeded the timeout.
  void ShedBlocked(ChunkId id);

  // --- Consumer side (the deployment loop). ---
  bool empty() const { return queue_.empty(); }
  size_t depth() const { return queue_.size(); }
  /// Virtual completion time of the head chunk.  Only valid when !empty().
  double HeadCompletionSeconds() const;
  /// True when the head chunk's service completes at or before `now`.
  bool HeadReadyAt(double now) const {
    return !queue_.empty() && HeadCompletionSeconds() <= now;
  }
  /// Pops the head and advances the drain clock to its completion time.
  Admitted Pop();

  LoadState state() const { return state_; }
  const Counters& counters() const { return counters_; }
  const Options& options() const { return options_; }
  /// Virtual time at which the consumer becomes free (monotonic across
  /// Pop calls); the arrival time a blocked producer re-offers with.
  double drain_free_at() const { return drain_free_at_; }

 private:
  struct Entry {
    RawChunk chunk;
    bool degraded = false;
    double arrival_seconds = 0.0;
  };

  void UpdateStateAndGauges();

  Options options_;
  std::deque<Entry> queue_;
  LoadState state_ = LoadState::kNormal;
  Counters counters_;
  double drain_free_at_ = 0.0;
  double last_offer_seconds_ = 0.0;
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_ADMISSION_H_
