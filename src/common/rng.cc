#include "src/common/rng.h"

#include <cmath>
#include <unordered_set>

#include "src/common/logging.h"

namespace cdpipe {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  CDPIPE_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless bounded generation.
  __uint128_t m = static_cast<__uint128_t>(NextUint64()) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      m = static_cast<__uint128_t>(NextUint64()) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_gaussian_ = r * std::sin(theta);
  has_spare_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  CDPIPE_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  if (k > n / 3) {
    // Selection sampling (Knuth algorithm S): one pass, O(n).
    std::vector<size_t> out;
    out.reserve(k);
    size_t remaining = k;
    for (size_t i = 0; i < n && remaining > 0; ++i) {
      if (NextBounded(n - i) < remaining) {
        out.push_back(i);
        --remaining;
      }
    }
    return out;
  }
  // Rejection sampling, O(k) expected.
  std::unordered_set<size_t> seen;
  std::vector<size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    size_t candidate = static_cast<size_t>(NextBounded(n));
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

}  // namespace cdpipe
