#ifndef CDPIPE_OBS_EVENT_RING_H_
#define CDPIPE_OBS_EVENT_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {

/// Fixed-capacity multi-producer ring of events that drops the oldest: the
/// one event buffer of src/obs, holding the journal's decisions and the
/// tracer's spans.
///
/// Appending is the hot path and never blocks: a producer claims a slot
/// with one wait-free fetch_add on the head ticket, then publishes the
/// event under that slot's one-word guard.  The guard is only ever
/// contended when the ring wraps onto a slot another thread is still
/// writing (capacity >> producers makes that vanishingly rare) or while a
/// reader copies that exact slot; the writer spins for those few stores.
/// When the ring is full the oldest event is overwritten and counted in
/// `TotalDropped()` and the `dropped` counter, so with no appends in flight
/// `TotalAppended() == live events + TotalDropped()` exactly.
///
/// `Event` is a fixed-size struct with the members `uint32_t producer` and
/// `uint64_t seq`, which Append fills in: a small id (from 1) that the ring
/// gives each appending thread, and that thread's count of appends (from
/// 1).  They let a consumer detect reordering or loss per thread even after
/// the ring wrapped.
///
/// Reading (`Tail`) is the cold path (an HTTP endpoint, a trace dump, a
/// test assertion): it walks the most recent tickets and copies each
/// published event out under its slot guard.
template <typename Event>
class EventRing {
 public:
  /// `dropped` (null: none) counts the overwritten events.
  EventRing(size_t capacity, Counter* dropped)
      : capacity_(std::max<size_t>(1, capacity)),
        epoch_(NextEpoch()),
        dropped_counter_(dropped),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Copies `event` into the ring as the calling thread's next event.
  void Append(const Event& event) {
    Producer& producer = ThisThreadProducer();
    const uint64_t ticket = head_.fetch_add(1, std::memory_order_acq_rel);
    Slot& slot = slots_[ticket % capacity_];
    slot.Lock();
    if (slot.published.load(std::memory_order_relaxed) != 0) {
      // Drop-oldest: the event previously published here is gone.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      if (dropped_counter_ != nullptr) dropped_counter_->Increment();
    }
    slot.event = event;
    slot.event.producer = producer.id;
    slot.event.seq = ++producer.seq;
    slot.published.store(ticket + 1, std::memory_order_relaxed);
    slot.Unlock();
  }

  /// The newest `max_events` published events, oldest first.  Events being
  /// overwritten concurrently are skipped, so the result is a consistent
  /// best-effort snapshot.
  std::vector<Event> Tail(size_t max_events) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t window = std::min<uint64_t>(
        {static_cast<uint64_t>(max_events), static_cast<uint64_t>(capacity_),
         head});
    std::vector<Event> out;
    out.reserve(window);
    for (uint64_t ticket = head - window; ticket < head; ++ticket) {
      Slot& slot = slots_[ticket % capacity_];
      slot.Lock();
      // Only surface the event if the slot still holds this exact ticket —
      // a concurrent wrap may have replaced (or not yet written) it.
      if (slot.published.load(std::memory_order_relaxed) == ticket + 1) {
        out.push_back(slot.event);
      }
      slot.Unlock();
    }
    return out;
  }

  /// Total events ever appended (including ones since overwritten).
  uint64_t TotalAppended() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events no longer retrievable: overwritten by the drop-oldest policy.
  uint64_t TotalDropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// Drops all buffered events and zeroes the totals.  Tests only: must not
  /// race concurrent appends.
  void Clear() {
    const uint64_t head = head_.load(std::memory_order_acquire);
    for (uint64_t i = 0; i < std::min<uint64_t>(head, capacity_); ++i) {
      slots_[i].Lock();
      slots_[i].published.store(0, std::memory_order_relaxed);
      slots_[i].Unlock();
    }
    head_.store(0, std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    void Lock() {
      uint32_t expected = 0;
      while (!guard.compare_exchange_weak(expected, 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        expected = 0;
        std::this_thread::yield();
      }
    }
    void Unlock() { guard.store(0, std::memory_order_release); }

    /// One-word guard: 0 = free, 1 = held by a writer or reader.
    std::atomic<uint32_t> guard{0};
    /// ticket + 1 of the event currently published here; 0 = empty.
    std::atomic<uint64_t> published{0};
    Event event;  ///< written/read only while `guard` is held
  };

  /// One thread's registration with one ring.
  struct Producer {
    uint64_t ring_epoch = 0;
    uint32_t id = 0;
    uint64_t seq = 0;
  };

  static uint64_t NextEpoch() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's registration, made on its first append.  Keyed by
  /// the ring's epoch, not its address, so a test's private ring never
  /// inherits ids or sequences from an earlier ring at the same address.
  Producer& ThisThreadProducer() {
    thread_local std::vector<Producer> producers;
    for (Producer& producer : producers) {
      if (producer.ring_epoch == epoch_) return producer;
    }
    producers.push_back(
        {epoch_, next_producer_.fetch_add(1, std::memory_order_relaxed), 0});
    return producers.back();
  }

  const size_t capacity_;
  const uint64_t epoch_;
  Counter* const dropped_counter_;
  const std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  ///< next ticket == total appended
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_producer_{1};
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_EVENT_RING_H_
