#ifndef CDPIPE_DEPLOYBENCH_STATS_H_
#define CDPIPE_DEPLOYBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace cdpipe {
namespace deploybench {

/// Linear-interpolated percentile (`p` in [0, 100]) of `n` unsorted values;
/// 0 for an empty set.
inline double Percentile(const double* vals, size_t n, double p) {
  if (n == 0) return 0.0;
  std::vector<double> sorted(vals, vals + n);
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double Percentile(const std::vector<double>& vals, double p) {
  return Percentile(vals.data(), vals.size(), p);
}

inline double Median(const std::vector<double>& vals) {
  return Percentile(vals, 50.0);
}

}  // namespace deploybench
}  // namespace cdpipe

#endif  // CDPIPE_DEPLOYBENCH_STATS_H_
