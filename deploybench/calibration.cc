#include "deploybench/calibration.h"

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cdpipe {
namespace deploybench {

namespace {

constexpr int kRecords = 16000;
constexpr int kFeaturesPerRecord = 15;
constexpr uint32_t kSlots = 4096;

void Pass() {
  std::vector<double> weights(kSlots, 0.0);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  double checksum = 0.0;
  for (int record = 0; record < kRecords; ++record) {
    std::vector<std::pair<uint32_t, double>> features;
    for (int j = 0; j < kFeaturesPerRecord; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const std::string token = "feature_" + std::to_string(state >> 40);
      const uint32_t slot =
          static_cast<uint32_t>(std::hash<std::string>{}(token)) % kSlots;
      features.emplace_back(slot, static_cast<double>(state >> 11) * 0x1p-53);
    }
    double margin = 0.0;
    for (const auto& [slot, value] : features) margin += weights[slot] * value;
    const double p = 1.0 / (1.0 + std::exp(-margin));
    const double gradient = p - static_cast<double>(record & 1);
    for (const auto& [slot, value] : features) {
      weights[slot] -= 0.01 * gradient * value;
    }
    checksum += p;
  }
  // Keeps the loop from being optimised away.
  volatile double sink = checksum;
  (void)sink;
}

}  // namespace

double CalibrationSeconds(size_t threads) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < threads; ++i) helpers.emplace_back(Pass);
  Pass();
  for (std::thread& helper : helpers) helper.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace deploybench
}  // namespace cdpipe
