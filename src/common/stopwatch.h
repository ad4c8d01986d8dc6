#ifndef CDPIPE_COMMON_STOPWATCH_H_
#define CDPIPE_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace cdpipe {

/// Wall-clock stopwatch over std::chrono::steady_clock.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
  }

  int64_t ElapsedMicros() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::microseconds>(now - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A manually advanced clock used by the scheduler and deployment simulation:
/// the platform processes a historical stream, so "now" is the timestamp of
/// the data being replayed, not the machine time.
class ManualClock {
 public:
  explicit ManualClock(double start_seconds = 0.0) : now_(start_seconds) {}

  double NowSeconds() const { return now_; }
  void AdvanceSeconds(double dt) { now_ += dt; }
  void SetSeconds(double t) { now_ = t; }

 private:
  double now_;
};

}  // namespace cdpipe

#endif  // CDPIPE_COMMON_STOPWATCH_H_
