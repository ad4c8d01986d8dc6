#ifndef CDPIPE_OBS_EVENT_JOURNAL_H_
#define CDPIPE_OBS_EVENT_JOURNAL_H_

#include <cstdint>
#include <string>

#include "src/obs/correlation.h"
#include "src/obs/event_ring.h"

namespace cdpipe {
namespace obs {

/// Every decision the system records (declared in decision.h).
enum class Decision : uint8_t;

/// One journal entry: the decision that produced it.  Fixed-size (no heap
/// ownership) so ring slots can be overwritten in place and copied out
/// without allocation.
struct JournalEvent {
  Decision decision{};
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

/// The structured-event journal of the deployment loop: what an operator
/// tails (via the obs server's /events endpoint) to see what a live
/// deployment is doing.  A drop-oldest EventRing whose drops also count in
/// `obs.journal_dropped`.
class EventJournal : public EventRing<JournalEvent> {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit EventJournal(size_t capacity = kDefaultCapacity);

  /// The process-wide journal every instrumented subsystem appends to,
  /// holding kDefaultCapacity events.  Always on: events are per chunk /
  /// per step, not per row, and an append costs a handful of atomics.
  static EventJournal& Global();

  /// Appends one event.  `detail` is truncated to the fixed event storage.
  /// Production code appends through obs::Record (decision.h).
  void Append(Decision decision, CorrelationId corr, const char* detail = "");

  /// JSON for the /events endpoint:
  ///   {"appended":N,"dropped":D,"capacity":C,
  ///    "events":[{"kind":"ingest","t_us":...,"deployment":1,"entity":42,
  ///               "producer":2,"seq":17,"detail":"..."},...]}
  /// where "kind" is the event's decision's declared kind.
  std::string TailToJson(size_t max_events) const;
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_EVENT_JOURNAL_H_
