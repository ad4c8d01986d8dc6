#include "src/sampling/sampler.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace cdpipe {

const char* SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kUniform:
      return "uniform";
    case SamplerKind::kWindow:
      return "window-based";
    case SamplerKind::kTime:
      return "time-based";
  }
  return "?";
}

std::vector<ChunkId> UniformSampler::Sample(
    const std::vector<ChunkId>& live_ids, size_t sample_size,
    Rng* rng) const {
  const std::vector<size_t> picks =
      rng->SampleWithoutReplacement(live_ids.size(), sample_size);
  std::vector<ChunkId> out;
  out.reserve(picks.size());
  for (size_t i : picks) out.push_back(live_ids[i]);
  return out;
}

WindowSampler::WindowSampler(size_t window_size) : window_size_(window_size) {
  CDPIPE_CHECK_GT(window_size_, 0u);
}

std::vector<ChunkId> WindowSampler::Sample(
    const std::vector<ChunkId>& live_ids, size_t sample_size,
    Rng* rng) const {
  const size_t n = live_ids.size();
  const size_t w = std::min(window_size_, n);
  const size_t offset = n - w;
  const std::vector<size_t> picks =
      rng->SampleWithoutReplacement(w, sample_size);
  std::vector<ChunkId> out;
  out.reserve(picks.size());
  for (size_t i : picks) out.push_back(live_ids[offset + i]);
  return out;
}

std::vector<ChunkId> TimeBasedSampler::Sample(
    const std::vector<ChunkId>& live_ids, size_t sample_size,
    Rng* rng) const {
  const size_t n = live_ids.size();
  if (sample_size >= n) return live_ids;
  // Efraimidis–Spirakis: key_i = u_i^(1/w_i); take the sample_size largest.
  // Using log-keys avoids underflow: log(key) = log(u)/w.
  std::vector<std::pair<double, size_t>> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    const double weight = static_cast<double>(i + 1);  // rank weight
    double u = 0.0;
    do {
      u = rng->NextDouble();
    } while (u <= 1e-300);
    keyed[i] = {std::log(u) / weight, i};
  }
  std::partial_sort(keyed.begin(), keyed.begin() + sample_size, keyed.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
  std::vector<ChunkId> out;
  out.reserve(sample_size);
  for (size_t k = 0; k < sample_size; ++k) {
    out.push_back(live_ids[keyed[k].second]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Sampler> MakeSampler(SamplerKind kind, size_t window_size) {
  switch (kind) {
    case SamplerKind::kUniform:
      return std::make_unique<UniformSampler>();
    case SamplerKind::kWindow:
      return std::make_unique<WindowSampler>(window_size);
    case SamplerKind::kTime:
      return std::make_unique<TimeBasedSampler>();
  }
  CDPIPE_CHECK(false) << "unknown sampler kind";
  return nullptr;
}

}  // namespace cdpipe
