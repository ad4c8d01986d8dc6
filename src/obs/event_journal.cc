#include "src/obs/event_journal.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace obs {
namespace {

std::atomic<uint64_t> next_journal_epoch{1};

/// Per-thread producer registration, keyed by journal epoch so a test's
/// private journal never inherits ids/sequences from an earlier instance
/// that happened to reuse the same address.
struct ProducerState {
  uint64_t journal_epoch = 0;
  uint32_t id = 0;
  uint64_t seq = 0;
};

void SpinAcquire(std::atomic<uint32_t>* guard) {
  uint32_t expected = 0;
  while (!guard->compare_exchange_weak(expected, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
    expected = 0;
    std::this_thread::yield();
  }
}

void Release(std::atomic<uint32_t>* guard) {
  guard->store(0, std::memory_order_release);
}

Counter* JournalDroppedCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("obs.journal_dropped");
  return counter;
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kIngest:
      return "ingest";
    case EventKind::kMaterializeHit:
      return "materialize_hit";
    case EventKind::kMaterializeMiss:
      return "materialize_miss";
    case EventKind::kRecompute:
      return "recompute";
    case EventKind::kSample:
      return "sample";
    case EventKind::kTrainStep:
      return "train_step";
    case EventKind::kDriftTrigger:
      return "drift_trigger";
    case EventKind::kRetry:
      return "retry";
    case EventKind::kDegrade:
      return "degrade";
    case EventKind::kCheckpoint:
      return "checkpoint";
    case EventKind::kEvict:
      return "evict";
    case EventKind::kStall:
      return "stall";
    case EventKind::kRecover:
      return "recover";
    case EventKind::kPlanCompile:
      return "plan_compile";
    case EventKind::kSnapshotPublish:
      return "snapshot_publish";
    case EventKind::kSnapshotSwap:
      return "snapshot_swap";
    case EventKind::kSpill:
      return "spill";
    case EventKind::kDiskLoad:
      return "disk_load";
    case EventKind::kPrefetchHit:
      return "prefetch_hit";
    case EventKind::kAdmit:
      return "admit";
    case EventKind::kShed:
      return "shed";
    case EventKind::kPressureChange:
      return "pressure_change";
    case EventKind::kRetryExhausted:
      return "retry_exhausted";
  }
  return "unknown";
}

EventJournal::EventJournal(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)),
      epoch_(next_journal_epoch.fetch_add(1, std::memory_order_relaxed)),
      slots_(std::make_unique<Slot[]>(std::max<size_t>(1, capacity))) {}

EventJournal& EventJournal::Global() {
  static EventJournal* journal = new EventJournal();
  return *journal;
}

void EventJournal::Append(EventKind kind, CorrelationId corr,
                          const char* detail) {
  if (!enabled()) return;
  thread_local std::vector<ProducerState> producers;
  ProducerState* state = nullptr;
  for (ProducerState& candidate : producers) {
    if (candidate.journal_epoch == epoch_) {
      state = &candidate;
      break;
    }
  }
  if (state == nullptr) {
    ProducerState fresh;
    fresh.journal_epoch = epoch_;
    fresh.id = next_producer_.fetch_add(1, std::memory_order_relaxed);
    producers.push_back(fresh);
    state = &producers.back();
  }

  const uint64_t ticket = head_.fetch_add(1, std::memory_order_acq_rel);
  Slot& slot = slots_[ticket % capacity_];
  SpinAcquire(&slot.guard);
  if (slot.published.load(std::memory_order_relaxed) != 0) {
    // Drop-oldest: the event previously published here is gone.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    JournalDroppedCounter()->Increment();
  }
  slot.event.kind = kind;
  slot.event.producer = state->id;
  slot.event.seq = ++state->seq;
  slot.event.timestamp_us = Tracer::NowMicros();
  slot.event.corr = corr;
  if (detail == nullptr) detail = "";
  std::strncpy(slot.event.detail, detail, sizeof(slot.event.detail) - 1);
  slot.event.detail[sizeof(slot.event.detail) - 1] = '\0';
  slot.published.store(ticket + 1, std::memory_order_relaxed);
  Release(&slot.guard);
}

std::vector<JournalEvent> EventJournal::Tail(size_t max_events) const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t window = std::min<uint64_t>(
      {static_cast<uint64_t>(max_events), static_cast<uint64_t>(capacity_),
       head});
  std::vector<JournalEvent> out;
  out.reserve(window);
  for (uint64_t ticket = head - window; ticket < head; ++ticket) {
    Slot& slot = const_cast<Slot&>(slots_[ticket % capacity_]);
    SpinAcquire(&slot.guard);
    // Only surface the event if the slot still holds this exact ticket —
    // a concurrent wrap may have replaced (or not yet written) it.
    if (slot.published.load(std::memory_order_relaxed) == ticket + 1) {
      out.push_back(slot.event);
    }
    Release(&slot.guard);
  }
  return out;
}

std::string EventJournal::TailToJson(size_t max_events) const {
  const std::vector<JournalEvent> events = Tail(max_events);
  std::string out = StrFormat(
      "{\"appended\":%llu,\"dropped\":%llu,\"capacity\":%zu,\"events\":[",
      static_cast<unsigned long long>(TotalAppended()),
      static_cast<unsigned long long>(TotalDropped()), capacity_);
  for (size_t i = 0; i < events.size(); ++i) {
    const JournalEvent& e = events[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"kind\":\"%s\",\"t_us\":%lld,\"deployment\":%u,\"entity\":%lld,"
        "\"producer\":%u,\"seq\":%llu,\"detail\":\"%s\"}",
        EventKindName(e.kind), static_cast<long long>(e.timestamp_us),
        e.corr.deployment, static_cast<long long>(e.corr.entity), e.producer,
        static_cast<unsigned long long>(e.seq), JsonEscape(e.detail).c_str());
  }
  out += "]}";
  return out;
}

void EventJournal::Clear() {
  const uint64_t head = head_.load(std::memory_order_acquire);
  for (uint64_t i = 0; i < std::min<uint64_t>(head, capacity_); ++i) {
    Slot& slot = slots_[i];
    SpinAcquire(&slot.guard);
    slot.published.store(0, std::memory_order_relaxed);
    Release(&slot.guard);
  }
  head_.store(0, std::memory_order_release);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace cdpipe
