#ifndef CDPIPE_OBS_TRACE_H_
#define CDPIPE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/common/status.h"
#include "src/obs/correlation.h"
#include "src/obs/event_ring.h"
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
  /// The recording thread's id in the span ring: the Chrome-trace "tid".
  uint32_t producer = 0;
  int64_t entity = -1;      ///< chunk id / step seq, -1 = none
  uint64_t seq = 0;         ///< the recording thread's span count
};

/// Process-wide span recorder.  Disabled by default: the enabled check is a
/// single atomic load, so leaving instrumentation in hot paths is free.
/// When enabled (programmatically or via the CDPIPE_TRACE environment
/// variable, whose value is the output path), every span goes into one
/// drop-oldest EventRing of kRingCapacity spans, allocated by the first
/// Enable() and freed with the tracer at exit; nothing is allocated while
/// tracing is off.  `WriteChromeTrace` emits a JSON file loadable in
/// chrome://tracing (or https://ui.perfetto.dev).  When CDPIPE_TRACE is
/// set, the trace is also dumped automatically at process exit.
class Tracer {
 public:
  static constexpr size_t kRingCapacity = 1u << 16;

  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void Enable();
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Microseconds since the tracer epoch (first use), steady clock.
  static int64_t NowMicros();
  /// `time` on the NowMicros timebase.
  static int64_t ToMicros(std::chrono::steady_clock::time_point time);

  /// Appends a completed span to the ring (a no-op before the first
  /// Enable()).  When the ring is full the oldest span is overwritten and
  /// counted in the `obs.trace_dropped` counter.
  void RecordComplete(const char* name, int64_t start_us, int64_t duration_us,
                      CorrelationId corr = CorrelationId{});

  /// Chrome trace format: {"traceEvents":[{"ph":"X",...},...]}.  A span's
  /// "cat" is its name up to the first '.'.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Where the automatic exit dump goes: $CDPIPE_TRACE ("" = no dump).
  const std::string& dump_path() const { return dump_path_; }

  /// Spans currently held in the ring (post-overwrite).
  size_t NumBufferedEvents() const;

  /// Drops all buffered spans.  Tests only.
  void Clear();

  ~Tracer();

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::once_flag ring_allocated_;
  /// Published (release) before `enabled_` turns on, so a thread that sees
  /// tracing on also sees the ring.
  std::atomic<EventRing<TraceEvent>*> ring_{nullptr};
  std::string dump_path_;
};

/// One timed scope: [construction, Stop() or destruction).  From one pair
/// of clock reads it records a span named `name` into the global tracer
/// (when tracing is on) and observes the phase's seconds into `histogram`
/// (when given).  With tracing off and no histogram the whole cost is one
/// atomic load, cheap enough for per-chunk and per-component use.
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
