#ifndef CDPIPE_OBS_EVENT_JOURNAL_H_
#define CDPIPE_OBS_EVENT_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/correlation.h"

namespace cdpipe {
namespace obs {

/// The structured-event vocabulary of the deployment loop.  One entry per
/// operationally meaningful transition; the journal is what an operator
/// tails (via the obs server's /events endpoint) to see what a live
/// deployment is doing.
enum class EventKind : uint8_t {
  kIngest = 0,          ///< raw chunk accepted into the store
  kMaterializeHit,      ///< sampled chunk found materialized
  kMaterializeMiss,     ///< sampled chunk must be re-materialized
  kRecompute,           ///< chunk re-materialized through the pipeline
  kSample,              ///< one proactive sample drawn (detail: hits/misses)
  kTrainStep,           ///< one proactive/retraining SGD step applied
  kDriftTrigger,        ///< drift detector confirmed a drift
  kRetry,               ///< transient failure retried (detail: op name)
  kDegrade,             ///< graceful degradation taken (detail: which)
  kCheckpoint,          ///< checkpoint saved or restored
  kEvict,               ///< feature chunk evicted / raw chunk dropped
  kStall,               ///< watchdog: subsystem heartbeat went silent
  kRecover,             ///< watchdog: stalled subsystem beat again
  kPlanCompile,         ///< transform plan compiled for a pipeline
  kSnapshotPublish,     ///< serving snapshot epoch published
  kSnapshotSwap,        ///< serving snapshot replaced a previous epoch
  kSpill,               ///< raw chunk written to the disk tier
  kDiskLoad,            ///< spilled chunk loaded synchronously
  kPrefetchHit,         ///< spilled chunk served from the prefetch stage
  kAdmit,               ///< chunk admitted into a bounded ingest queue
  kShed,                ///< chunk dropped by admission control (detail: why)
  kPressureChange,      ///< ingest load state transitioned (detail: from->to)
};

/// Stable lowercase identifier ("ingest", "materialize_hit", ...).
const char* EventKindName(EventKind kind);

/// One journal entry.  Fixed-size (no heap ownership) so ring slots can be
/// overwritten in place and copied out without allocation.
struct JournalEvent {
  EventKind kind = EventKind::kIngest;
  /// Small stable id of the producing thread (assigned on first append).
  uint32_t producer = 0;
  /// Per-producer monotonic sequence number (starts at 1).  Lets consumers
  /// detect reordering/loss per thread even after the ring wrapped.
  uint64_t seq = 0;
  /// Microseconds on the Tracer::NowMicros timebase — the same clock the
  /// span tree uses, so events and spans interleave correctly.
  int64_t timestamp_us = 0;
  CorrelationId corr;
  /// Short free-text detail ("hits=7 misses=3", "op=deployment.ingest").
  char detail[48] = {0};
};

/// Fixed-capacity multi-producer ring journal of structured events.
///
/// Appending is the hot path and never blocks: a producer claims a slot
/// with one wait-free fetch_add on the head ticket, then publishes the
/// event under that slot's one-word guard.  The guard is only ever
/// contended when the ring wraps onto a slot another thread is still
/// writing (capacity >> producers makes that vanishingly rare) or while a
/// reader copies that exact slot; the writer spins for those few stores.
/// When the ring is full the oldest event is overwritten and counted in
/// `TotalDropped()` (drop-oldest), so with no appends in flight
/// `TotalAppended() == live events + TotalDropped()` exactly.
///
/// Reading (`Tail`) is the cold path (an HTTP endpoint, a test assertion):
/// it walks the most recent tickets and copies each published event out
/// under its slot guard.
class EventJournal {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit EventJournal(size_t capacity = kDefaultCapacity);

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// The process-wide journal every instrumented subsystem appends to.
  /// Enabled by default (events are per chunk / per step, not per row —
  /// the cost is a handful of relaxed atomics).  CDPIPE_JOURNAL=off
  /// disables it at startup; CDPIPE_JOURNAL_CAPACITY overrides the ring
  /// size.
  static EventJournal& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Appends one event with an explicit correlation id.  `detail` is
  /// truncated to the fixed event storage.
  void Append(EventKind kind, CorrelationId corr, const char* detail = "");

  /// Appends with the calling thread's current CorrelationScope.
  void Append(EventKind kind, const char* detail = "");

  /// The newest `max_events` published events, oldest first.  Events being
  /// overwritten concurrently are skipped, so the result is a consistent
  /// best-effort snapshot.
  std::vector<JournalEvent> Tail(size_t max_events) const;

  /// JSON for the /events endpoint:
  ///   {"appended":N,"dropped":D,"capacity":C,
  ///    "events":[{"kind":"ingest","t_us":...,"deployment":1,"entity":42,
  ///               "producer":2,"seq":17,"detail":"..."},...]}
  std::string TailToJson(size_t max_events) const;

  /// Total events ever appended (including ones since overwritten).
  uint64_t TotalAppended() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events no longer retrievable: overwritten by the drop-oldest policy.
  uint64_t TotalDropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// Drops all buffered events and zeroes the counters.  Tests only: must
  /// not race concurrent appends.
  void Clear();

 private:
  struct Slot {
    /// One-word guard: 0 = free, 1 = held by a writer or reader.
    std::atomic<uint32_t> guard{0};
    /// ticket + 1 of the event currently published here; 0 = empty.
    std::atomic<uint64_t> published{0};
    JournalEvent event;  ///< written/read only while `guard` is held
  };

  void AppendImpl(EventKind kind, CorrelationId corr, const char* detail);

  std::atomic<bool> enabled_{true};
  const size_t capacity_;
  /// Distinguishes journal instances across create/destroy cycles so
  /// thread-local producer registrations never leak between journals.
  const uint64_t epoch_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};     ///< next ticket == total appended
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_producer_{1};
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_EVENT_JOURNAL_H_
