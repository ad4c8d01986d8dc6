#include "deploybench/span_recorder.h"

#include <chrono>
#include <cstdio>

#include "src/common/logging.h"

namespace cdpipe {
namespace deploybench {

int64_t SpanRecorder::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Open(const char* name, int64_t chunk) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.chunk = chunk >= 0 || open_ < 0 ? chunk : spans_[open_].chunk;
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  // Stamp last so the bookkeeping above stays outside the span.
  spans_.back().start_ns = NowNanos();
  return open_;
}

void SpanRecorder::Close(int32_t index) {
  const int64_t now = NowNanos();
  CDPIPE_CHECK_EQ(index, open_) << "spans must close innermost first";
  spans_[index].end_ns = now;
  open_ = spans_[index].parent;
}

void SpanRecorder::Clear() {
  CDPIPE_CHECK_EQ(open_, -1);
  spans_.clear();
}

std::vector<double> SpanRecorder::SelfNanos() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double duration =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    self[i] += duration;
    if (spans_[i].parent >= 0) self[spans_[i].parent] -= duration;
  }
  return self;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Aggregate() const {
  const std::vector<double> self = SelfNanos();
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    CDPIPE_CHECK_GE(span.end_ns, 0) << "span " << span.name << " still open";
    const double duration_ns = static_cast<double>(span.end_ns - span.start_ns);
    Totals& totals = out[span.name];
    totals.calls += 1;
    totals.seconds += duration_ns * 1e-9;
    totals.self_seconds += self[i] * 1e-9;
    totals.durations_us.push_back(duration_ns * 1e-3);
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfNanos();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"chunk\":%lld,"
                 "\"parent\":%d,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                 static_cast<long long>(span.chunk), span.parent,
                 self[i] * 1e-3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace deploybench
}  // namespace cdpipe
