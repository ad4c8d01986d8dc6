#ifndef CDPIPE_CORE_COST_MODEL_H_
#define CDPIPE_CORE_COST_MODEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/obs/trace.h"

namespace cdpipe {

/// The cost phases the paper's evaluation separates: "we measure the time
/// the platforms spend in updating the model, performing proactive training
/// (retraining for the periodical scenario), and answering prediction
/// queries" (§5.1), with data preprocessing accounted explicitly.
enum class CostPhase {
  kPreprocessing = 0,    ///< pipeline statistics update + transform
  kOnlineTraining,       ///< per-chunk online SGD updates
  kProactiveTraining,    ///< proactive mini-batch iterations (continuous)
  kRetraining,           ///< full retraining (periodical)
  kMaterialization,      ///< re-materializing evicted feature chunks
  kPrediction,           ///< answering prediction queries
  kSpill,                ///< encoding + writing raw chunks to the disk tier
  kDiskLoad,             ///< reading + decoding spilled chunks (sync or
                         ///< prefetch — disk latency either way)
  kNumPhases,
};

const char* CostPhaseName(CostPhase phase);

/// Accumulates deployment cost along two axes:
///
///  - wall-clock seconds per phase (what the paper reports), and
///  - deterministic work units (rows scanned / gradient rows / predictions),
///    which make the *shape* of every cost figure reproducible regardless of
///    the machine the benchmark runs on.
/// Thread-safe: accumulators are relaxed atomics, so parallel engine tasks
/// (re-materialization fan-out) account their work without a lock.  Work
/// units are integers — parallel accounting stays exact and
/// order-independent.
class CostModel {
 public:
  CostModel() = default;
  CostModel(const CostModel& other);
  CostModel& operator=(const CostModel& other);

  void AddSeconds(CostPhase phase, double seconds);
  void AddWork(CostPhase phase, int64_t rows);

  double SecondsIn(CostPhase phase) const;
  int64_t WorkIn(CostPhase phase) const;

  /// Total deployment cost in seconds (sum over phases).
  double TotalSeconds() const;
  /// Total work units (sum over phases).
  int64_t TotalWork() const;
  void Reset();

  std::string ToString() const;

  /// RAII timer: an obs::Phase named `name` (null: no span) whose seconds
  /// are added to `phase` on destruction.  A null `model` leaves only the
  /// span, so callers with an optional cost model time unconditionally.
  class ScopedTimer : public obs::Phase {
   public:
    ScopedTimer(CostModel* model, CostPhase phase, const char* name = nullptr)
        : obs::Phase(name, /*histogram=*/nullptr, model != nullptr),
          model_(model),
          phase_(phase) {}
    ~ScopedTimer() {
      const double seconds = Stop();
      if (model_ != nullptr) model_->AddSeconds(phase_, seconds);
    }

   private:
    CostModel* model_;
    CostPhase phase_;
  };

 private:
  static constexpr size_t kNumPhases =
      static_cast<size_t>(CostPhase::kNumPhases);
  std::array<std::atomic<double>, kNumPhases> seconds_{};
  std::array<std::atomic<int64_t>, kNumPhases> work_{};
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_COST_MODEL_H_
