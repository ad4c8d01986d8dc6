#include "src/obs/trace.h"

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

Counter* TraceDroppedCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("obs.trace_dropped");
  return counter;
}

void CopyName(char* dst, size_t dst_size, const char* src) {
  if (src == nullptr) src = "";
  std::strncpy(dst, src, dst_size - 1);
  dst[dst_size - 1] = '\0';
}

}  // namespace

Tracer::Tracer() {
  NowMicros();  // fixes the epoch before any span can start
  if (const char* env = std::getenv("CDPIPE_TRACE");
      env != nullptr && env[0] != '\0') {
    dump_path_ = env;
    Enable();
  }
}

Tracer::~Tracer() {
  std::string path = dump_path();
  if (!path.empty()) {
    // Best effort: the process is exiting, a failed dump only warrants a
    // message on stderr.
    Status status = WriteChromeTrace(path);
    if (!status.ok()) {
      std::fprintf(stderr, "cdpipe: trace dump to %s failed: %s\n",
                   path.c_str(), status.ToString().c_str());
    }
  }
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowMicros() {
  return ToMicros(std::chrono::steady_clock::now());
}

int64_t Tracer::ToMicros(std::chrono::steady_clock::time_point time) {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(time - epoch)
      .count();
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_shared<ThreadBuffer>();
    fresh->capacity = ring_capacity_.load(std::memory_order_relaxed);
    fresh->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers_.push_back(fresh);
    buffer = fresh.get();  // kept alive by buffers_ for process lifetime
  }
  return buffer;
}

void Tracer::RecordComplete(const char* name, int64_t start_us,
                            int64_t duration_us, CorrelationId corr) {
  ThreadBuffer* buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mu);
  TraceEvent* slot;
  if (buffer->ring.size() < buffer->capacity) {
    // Grow phase: events live at ring[0..size) in recording order.
    buffer->ring.emplace_back();
    slot = &buffer->ring.back();
  } else if (buffer->capacity == 0) {
    ++buffer->dropped;
    TraceDroppedCounter()->Increment();
    return;
  } else {
    // At capacity: `next` is the oldest event; overwrite it.
    slot = &buffer->ring[buffer->next];
    buffer->next = (buffer->next + 1) % buffer->capacity;
    buffer->wrapped = true;
    ++buffer->dropped;
    TraceDroppedCounter()->Increment();
  }
  CopyName(slot->name, sizeof(slot->name), name);
  slot->start_us = start_us;
  slot->duration_us = duration_us;
  slot->deployment = corr.deployment;
  slot->entity = corr.entity;
}

void Tracer::AppendEventsLocked(
    const ThreadBuffer& buffer,
    std::vector<std::pair<uint32_t, TraceEvent>>* out) const {
  if (!buffer.wrapped) {
    for (size_t i = 0; i < buffer.ring.size(); ++i) {
      out->emplace_back(buffer.tid, buffer.ring[i]);
    }
  } else {
    for (size_t i = buffer.next; i < buffer.ring.size(); ++i) {
      out->emplace_back(buffer.tid, buffer.ring[i]);
    }
    for (size_t i = 0; i < buffer.next; ++i) {
      out->emplace_back(buffer.tid, buffer.ring[i]);
    }
  }
}

std::string Tracer::ToChromeTraceJson() const {
  std::vector<std::pair<uint32_t, TraceEvent>> events;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mu_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      AppendEventsLocked(*buffer, &events);
    }
  }
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i].second;
    const std::string category(e.name, std::strcspn(e.name, "."));
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\",\"cat\":\"%s\","
        "\"ts\":%lld,\"dur\":%lld",
        events[i].first, JsonEscape(e.name).c_str(),
        JsonEscape(category).c_str(),
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

std::string Tracer::dump_path() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return dump_path_;
}

size_t Tracer::NumBufferedEvents() const {
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->ring.size();
  }
  return total;
}

uint64_t Tracer::NumDroppedEvents() const {
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->dropped;
  }
  return total;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->ring.clear();
    buffer->next = 0;
    buffer->wrapped = false;
    buffer->dropped = 0;
  }
}

void Tracer::SetRingCapacityForNewThreads(size_t capacity) {
  ring_capacity_.store(capacity, std::memory_order_relaxed);
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
