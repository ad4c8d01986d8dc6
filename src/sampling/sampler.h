#ifndef CDPIPE_SAMPLING_SAMPLER_H_
#define CDPIPE_SAMPLING_SAMPLER_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/dataframe/chunk.h"

namespace cdpipe {

/// Sampling strategies offered by the data manager (paper §4.2).
enum class SamplerKind {
  kUniform,  ///< every live chunk equally likely
  kWindow,   ///< uniform over the most recent w chunks
  kTime,     ///< recency-weighted (weight ∝ arrival rank)
};

const char* SamplerKindName(SamplerKind kind);

/// Selects `sample_size` chunk ids without replacement from the live chunk
/// ids (oldest first, as returned by ChunkStore::LiveIds).  Returns fewer
/// ids when fewer chunks exist.  Implementations are deterministic given
/// the Rng.
class Sampler {
 public:
  virtual ~Sampler() = default;

  virtual std::vector<ChunkId> Sample(const std::vector<ChunkId>& live_ids,
                                      size_t sample_size, Rng* rng) const = 0;
};

/// Uniform sampling without replacement over all live chunks.
class UniformSampler final : public Sampler {
 public:
  std::vector<ChunkId> Sample(const std::vector<ChunkId>& live_ids,
                              size_t sample_size, Rng* rng) const override;
};

/// Uniform sampling restricted to the `window_size` most recent chunks.
class WindowSampler final : public Sampler {
 public:
  explicit WindowSampler(size_t window_size);

  std::vector<ChunkId> Sample(const std::vector<ChunkId>& live_ids,
                              size_t sample_size, Rng* rng) const override;

 private:
  size_t window_size_;
};

/// Recency-weighted sampling without replacement: the i-th oldest of n live
/// chunks has weight i (linear in arrival rank), so recent chunks are up to
/// n times likelier than the oldest.  Uses the Efraimidis–Spirakis weighted
/// reservoir scheme (keys u^(1/w), take the s largest).
class TimeBasedSampler final : public Sampler {
 public:
  std::vector<ChunkId> Sample(const std::vector<ChunkId>& live_ids,
                              size_t sample_size, Rng* rng) const override;
};

/// Factory from kind; `window_size` only used by the window sampler.
std::unique_ptr<Sampler> MakeSampler(SamplerKind kind, size_t window_size = 0);

}  // namespace cdpipe

#endif  // CDPIPE_SAMPLING_SAMPLER_H_
