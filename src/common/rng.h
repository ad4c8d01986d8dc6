#ifndef CDPIPE_COMMON_RNG_H_
#define CDPIPE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdpipe {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64).  All randomness in the library flows through explicitly
/// seeded `Rng` instances so every experiment is reproducible from a single
/// `--seed` flag.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached spare deviate).
  double NextGaussian();

  /// Gaussian with given mean and stddev.
  double NextGaussian(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Fisher-Yates shuffle in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      using std::swap;
      swap((*v)[i], (*v)[j]);
    }
  }

  /// Sample k distinct indices from [0, n) uniformly without replacement.
  /// Returns fewer than k indices when k > n.  O(n) via reservoir when k is
  /// large relative to n, O(k) rejection otherwise.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace cdpipe

#endif  // CDPIPE_COMMON_RNG_H_
