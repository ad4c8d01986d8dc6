#ifndef CDPIPE_OBS_TRACE_H_
#define CDPIPE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/correlation.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {

/// One completed span, ready for Chrome trace format ("ph":"X").  Names are
/// copied into fixed storage so events never dangle and recording never
/// allocates.
struct TraceEvent {
  char name[64];
  int64_t start_us = 0;     ///< microseconds since tracer epoch
  int64_t duration_us = 0;
  /// Correlation captured from the recording thread's CorrelationScope;
  /// emitted as Chrome-trace "args" so spans join up with journal events.
  uint32_t deployment = 0;  ///< 0 = none
  int64_t entity = -1;      ///< chunk id / step seq, -1 = none
};

/// Process-wide span recorder.  Disabled by default: the enabled check is a
/// single relaxed atomic load, so leaving instrumentation in hot paths is
/// free.  When enabled (programmatically or via the CDPIPE_TRACE environment
/// variable, whose value is the output path), every span goes into a
/// per-thread ring buffer — threads never contend with each other; the only
/// lock is the buffer's own mutex, uncontended except while a dump snapshots
/// it.  `WriteChromeTrace` emits a JSON file loadable in chrome://tracing
/// (or https://ui.perfetto.dev).  When CDPIPE_TRACE is set, the trace is
/// also dumped automatically at process exit.
class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Microseconds since the tracer epoch (first use), steady clock.
  static int64_t NowMicros();
  /// `time` on the NowMicros timebase.
  static int64_t ToMicros(std::chrono::steady_clock::time_point time);

  /// Appends a completed span to the calling thread's ring buffer.  When the
  /// ring is full the oldest events are overwritten (counted as dropped and
  /// reflected in the `obs.trace_dropped` counter).
  void RecordComplete(const char* name, int64_t start_us, int64_t duration_us,
                      CorrelationId corr = CorrelationId{});

  /// Chrome trace format: {"traceEvents":[{"ph":"X",...},...]}.  A span's
  /// "cat" is its name up to the first '.'.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Where the automatic exit dump goes: $CDPIPE_TRACE ("" = no dump).
  std::string dump_path() const;

  /// Events currently held across all thread buffers (post-overwrite).
  size_t NumBufferedEvents() const;
  uint64_t NumDroppedEvents() const;

  /// Drops all buffered events (buffers stay registered).  Tests only.
  void Clear();

  /// Ring capacity for buffers created after the call (existing buffers are
  /// unchanged; the initial capacity is 65536 events).
  void SetRingCapacityForNewThreads(size_t capacity);
  size_t ring_capacity_for_new_threads() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  ~Tracer();

 private:
  struct ThreadBuffer {
    mutable std::mutex mu;
    std::vector<TraceEvent> ring;  ///< sized to capacity on first event
    size_t capacity = 0;
    size_t next = 0;       ///< write cursor
    bool wrapped = false;  ///< ring has overwritten at least once
    uint64_t dropped = 0;
    uint32_t tid = 0;      ///< stable small id for the trace output
  };

  Tracer();
  ThreadBuffer* BufferForThisThread();
  void AppendEventsLocked(const ThreadBuffer& buffer,
                          std::vector<std::pair<uint32_t, TraceEvent>>* out)
      const;

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> ring_capacity_{1u << 16};
  std::atomic<uint32_t> next_tid_{1};
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string dump_path_;
};

/// One timed scope: [construction, Stop() or destruction).  From one pair
/// of clock reads it records a span named `name` into the global tracer
/// (when tracing is on) and observes the phase's seconds into `histogram`
/// (when given).  With tracing off and no histogram the whole cost is one
/// relaxed atomic load, cheap enough for per-chunk and per-component use.
/// The span carries the thread's CorrelationScope.  `name` must outlive
/// the phase; a null name records no span.  A phase that ends through an
/// error return is recorded like any other.
class Phase {
 public:
  explicit Phase(const char* name, Histogram* histogram = nullptr)
      : Phase(name, histogram, /*timed=*/false) {}

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  ~Phase() { Stop(); }

  /// Ends the phase now and returns its seconds; 0 when nothing timed it
  /// (tracing off, no histogram) or when it already ended.
  double Stop() { return running_ ? End() : 0.0; }

 protected:
  /// `timed` reads the clock even when neither the tracer nor a histogram
  /// needs it, for a caller that consumes Stop()'s seconds.
  Phase(const char* name, Histogram* histogram, bool timed)
      : name_(name),
        histogram_(histogram),
        traced_(name != nullptr && Tracer::Global().enabled()),
        running_(traced_ || histogram != nullptr || timed) {
    if (traced_) corr_ = CorrelationScope::Current();
    if (running_) start_ = std::chrono::steady_clock::now();
  }

 private:
  double End();

  const char* name_;
  Histogram* histogram_;
  bool traced_;
  bool running_;
  std::chrono::steady_clock::time_point start_;
  CorrelationId corr_;
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_TRACE_H_
