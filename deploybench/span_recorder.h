#ifndef CDPIPE_DEPLOYBENCH_SPAN_RECORDER_H_
#define CDPIPE_DEPLOYBENCH_SPAN_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cdpipe {
namespace deploybench {

/// In-memory span log for one single-threaded traced replay.  Each span
/// holds its name, steady-clock start/end, the index of its parent span
/// and the chunk id it works for (the identifier all spans of one chunk
/// share).  Spans nest strictly (RAII scopes on one thread), so a span's
/// self time is its duration minus the summed durations of its direct
/// children.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  ///< string literal; never owned
    int64_t start_ns = 0;
    int64_t end_ns = -1;    ///< -1 while open
    int32_t parent = -1;    ///< index into spans(), -1 for a root
    int64_t chunk = -1;     ///< chunk id, -1 outside any chunk
  };

  /// Per-name aggregate over every closed span.
  struct Totals {
    int64_t calls = 0;
    double seconds = 0.0;
    double self_seconds = 0.0;
    std::vector<double> durations_us;
  };

  /// RAII span: open on construction, closed on destruction.  `chunk` < 0
  /// inherits the enclosing span's chunk id.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, int64_t chunk = -1)
        : recorder_(recorder), index_(recorder->Open(name, chunk)) {}
    ~Scope() { recorder_->Close(index_); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int32_t index_;
  };

  static int64_t NowNanos();

  int32_t Open(const char* name, int64_t chunk);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

  std::map<std::string, Totals> Aggregate() const;

  /// Chrome trace format ("ph":"X" events, args carry chunk id, parent
  /// index and self time).  Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<double> SelfNanos() const;

  std::vector<Span> spans_;
  int32_t open_ = -1;  ///< innermost open span
};

}  // namespace deploybench
}  // namespace cdpipe

#endif  // CDPIPE_DEPLOYBENCH_SPAN_RECORDER_H_
