#ifndef CDPIPE_PIPELINE_FEATURE_HASHER_H_
#define CDPIPE_PIPELINE_FEATURE_HASHER_H_

#include <memory>
#include <string>

#include "src/pipeline/component.h"

namespace cdpipe {

/// The hashing trick: maps a high-dimensional sparse feature space into
/// 2^`bits` buckets with a signed hash (each value is multiplied by a ±1
/// hash sign, which reduces collision bias), so the model's weight vector
/// has a fixed, bounded dimension regardless of how many raw features exist
/// or appear over time.  Stateless, hence trivially compatible with online
/// statistics computation; output stays sparse, preserving the O(p) storage
/// bound of §3.2.1.
///
/// Feature extraction (Table 1).
class FeatureHasher : public PipelineComponent {
 public:
  struct Options {
    /// Output dimension is 2^bits.
    uint32_t bits = 18;
  };

  FeatureHasher() : FeatureHasher(Options()) {}
  explicit FeatureHasher(Options options);

  std::string name() const override { return "feature_hasher"; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  std::unique_ptr<PipelineComponent> Clone() const override;

  uint32_t output_dim() const { return 1u << options_.bits; }
  const Options& options() const { return options_; }

  /// Bucket for a raw feature index (exposed for tests).
  uint32_t BucketOf(uint32_t index) const;
  /// Sign (±1.0) for a raw feature index.
  double SignOf(uint32_t index) const;

 private:
  Options options_;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_FEATURE_HASHER_H_
