#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/string_util.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {
namespace {

void CopyName(char* dst, size_t dst_size, const char* src) {
  if (src == nullptr) src = "";
  std::strncpy(dst, src, dst_size - 1);
  dst[dst_size - 1] = '\0';
}

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

Tracer::Tracer() {
  Epoch();  // fixes the epoch before any span can start
  if (const char* env = std::getenv("CDPIPE_TRACE");
      env != nullptr && env[0] != '\0') {
    dump_path_ = env;
    Enable();
  }
}

Tracer::~Tracer() {
  if (!dump_path_.empty()) {
    // Best effort: the process is exiting, a failed dump only warrants a
    // message on stderr.
    Status status = WriteChromeTrace(dump_path_);
    if (!status.ok()) {
      std::fprintf(stderr, "cdpipe: trace dump to %s failed: %s\n",
                   dump_path_.c_str(), status.ToString().c_str());
    }
  }
  // A span recorded after this point finds no ring and is dropped.
  delete ring_.exchange(nullptr, std::memory_order_acq_rel);
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable() {
  std::call_once(ring_allocated_, [this] {
    ring_.store(new EventRing<TraceEvent>(
                    kRingCapacity,
                    MetricsRegistry::Global().GetCounter("obs.trace_dropped")),
                std::memory_order_release);
  });
  enabled_.store(true, std::memory_order_release);
}

int64_t Tracer::NowMicros() {
  Epoch();  // exists before the clock is read: no reading precedes it
  return ToMicros(std::chrono::steady_clock::now());
}

int64_t Tracer::ToMicros(std::chrono::steady_clock::time_point time) {
  return std::chrono::duration_cast<std::chrono::microseconds>(time - Epoch())
      .count();
}

void Tracer::RecordComplete(const char* name, int64_t start_us,
                            int64_t duration_us, CorrelationId corr) {
  EventRing<TraceEvent>* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  TraceEvent event;
  CopyName(event.name, sizeof(event.name), name);
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.deployment = corr.deployment;
  event.entity = corr.entity;
  ring->Append(event);
}

std::string Tracer::ToChromeTraceJson() const {
  const EventRing<TraceEvent>* ring = ring_.load(std::memory_order_acquire);
  const std::vector<TraceEvent> events =
      ring == nullptr ? std::vector<TraceEvent>() : ring->Tail(kRingCapacity);
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const std::string category(e.name, std::strcspn(e.name, "."));
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\",\"cat\":\"%s\","
        "\"ts\":%lld,\"dur\":%lld",
        e.producer, JsonEscape(e.name).c_str(), JsonEscape(category).c_str(),
        static_cast<long long>(e.start_us),
        static_cast<long long>(e.duration_us));
    if (e.deployment != 0 || e.entity >= 0) {
      out += StrFormat(",\"args\":{\"deployment\":%u,\"entity\":%lld}",
                       e.deployment, static_cast<long long>(e.entity));
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open trace output file " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::IoError("short write to trace output file " + path);
  }
  return Status::OK();
}

size_t Tracer::NumBufferedEvents() const {
  const EventRing<TraceEvent>* ring = ring_.load(std::memory_order_acquire);
  return ring == nullptr
             ? 0
             : std::min<uint64_t>(ring->TotalAppended(), ring->capacity());
}

void Tracer::Clear() {
  if (EventRing<TraceEvent>* ring = ring_.load(std::memory_order_acquire)) {
    ring->Clear();
  }
}

double Phase::End() {
  running_ = false;
  const std::chrono::steady_clock::time_point end =
      std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  if (histogram_ != nullptr) histogram_->Observe(seconds);
  if (traced_) {
    const int64_t start_us = Tracer::ToMicros(start_);
    Tracer::Global().RecordComplete(name_, start_us,
                                    Tracer::ToMicros(end) - start_us, corr_);
  }
  return seconds;
}

}  // namespace obs
}  // namespace cdpipe
