#include "src/core/cost_model.h"

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace cdpipe {

const char* CostPhaseName(CostPhase phase) {
  switch (phase) {
    case CostPhase::kPreprocessing:
      return "preprocessing";
    case CostPhase::kOnlineTraining:
      return "online-training";
    case CostPhase::kProactiveTraining:
      return "proactive-training";
    case CostPhase::kRetraining:
      return "retraining";
    case CostPhase::kMaterialization:
      return "materialization";
    case CostPhase::kPrediction:
      return "prediction";
    case CostPhase::kSpill:
      return "spill";
    case CostPhase::kDiskLoad:
      return "disk-load";
    case CostPhase::kNumPhases:
      break;
  }
  return "?";
}

CostModel::CostModel(const CostModel& other) { *this = other; }

CostModel& CostModel::operator=(const CostModel& other) {
  for (size_t i = 0; i < kNumPhases; ++i) {
    seconds_[i].store(other.seconds_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    work_[i].store(other.work_[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  return *this;
}

void CostModel::AddSeconds(CostPhase phase, double seconds) {
  seconds_[static_cast<size_t>(phase)].fetch_add(seconds,
                                                 std::memory_order_relaxed);
}

void CostModel::AddWork(CostPhase phase, int64_t rows) {
  work_[static_cast<size_t>(phase)].fetch_add(rows,
                                              std::memory_order_relaxed);
}

double CostModel::SecondsIn(CostPhase phase) const {
  return seconds_[static_cast<size_t>(phase)].load(std::memory_order_relaxed);
}

int64_t CostModel::WorkIn(CostPhase phase) const {
  return work_[static_cast<size_t>(phase)].load(std::memory_order_relaxed);
}

double CostModel::TotalSeconds() const {
  double total = 0.0;
  for (const std::atomic<double>& s : seconds_) {
    total += s.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t CostModel::TotalWork() const {
  int64_t total = 0;
  for (const std::atomic<int64_t>& w : work_) {
    total += w.load(std::memory_order_relaxed);
  }
  return total;
}

void CostModel::Reset() {
  for (size_t i = 0; i < kNumPhases; ++i) {
    seconds_[i].store(0.0, std::memory_order_relaxed);
    work_[i].store(0, std::memory_order_relaxed);
  }
}

std::string CostModel::ToString() const {
  std::string out = "Cost{";
  bool first = true;
  for (size_t i = 0; i < kNumPhases; ++i) {
    const double seconds = seconds_[i].load(std::memory_order_relaxed);
    const int64_t work = work_[i].load(std::memory_order_relaxed);
    if (seconds == 0.0 && work == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += StrFormat("%s: %.3fs/%lld rows",
                     CostPhaseName(static_cast<CostPhase>(i)), seconds,
                     static_cast<long long>(work));
  }
  out += StrFormat("; total %.3fs}", TotalSeconds());
  return out;
}

}  // namespace cdpipe
