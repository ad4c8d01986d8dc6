#include "src/pipeline/feature_hasher.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

/// Hashes libsvm `records` (raw feature dim `dim`).
Result<FeatureData> Hash(FeatureHasher* hasher,
                         const std::vector<std::string>& records,
                         uint32_t dim) {
  return KernelHarness::LibSvm(hasher, dim).Transform(records);
}

TEST(FeatureHasherTest, OutputDimIsPowerOfTwo) {
  FeatureHasher::Options options;
  options.bits = 10;
  FeatureHasher hasher(options);
  EXPECT_EQ(hasher.output_dim(), 1024u);
}

TEST(FeatureHasherTest, BucketsWithinRange) {
  FeatureHasher::Options options;
  options.bits = 8;
  FeatureHasher hasher(options);
  for (uint32_t i = 0; i < 10000; ++i) {
    EXPECT_LT(hasher.BucketOf(i), 256u);
    const double sign = hasher.SignOf(i);
    EXPECT_TRUE(sign == 1.0 || sign == -1.0);
  }
}

TEST(FeatureHasherTest, DeterministicMapping) {
  FeatureHasher::Options options;
  FeatureHasher a(options);
  FeatureHasher b(options);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.BucketOf(i), b.BucketOf(i));
    EXPECT_EQ(a.SignOf(i), b.SignOf(i));
  }
}

TEST(FeatureHasherTest, TransformPreservesValueMagnitude) {
  FeatureHasher::Options options;
  options.bits = 12;
  FeatureHasher hasher(options);
  auto result = Hash(&hasher, {"1 123456:2.5"}, 1u << 20);
  ASSERT_TRUE(result.ok());
  const FeatureData& out = *result;
  EXPECT_EQ(out.dim, 4096u);
  ASSERT_EQ(out.features[0].nnz(), 1u);
  EXPECT_DOUBLE_EQ(std::abs(out.features[0].values()[0]), 2.5);
  EXPECT_EQ(out.features[0].indices()[0], hasher.BucketOf(123456));
}

TEST(FeatureHasherTest, SignedHashAppliesSign) {
  FeatureHasher::Options options;
  options.bits = 12;
  FeatureHasher hasher(options);
  auto result = Hash(&hasher, {"1 77:2.0"}, 1000);
  ASSERT_TRUE(result.ok());
  const FeatureData& out = *result;
  EXPECT_DOUBLE_EQ(out.features[0].values()[0], 2.0 * hasher.SignOf(77));
}

TEST(FeatureHasherTest, CollidingIndicesAccumulate) {
  FeatureHasher::Options options;
  options.bits = 1;  // only 2 buckets: collisions guaranteed
  FeatureHasher hasher(options);
  auto result = Hash(&hasher, {"1 0:1.0 1:1.0 2:1.0 3:1.0"}, 100);
  ASSERT_TRUE(result.ok());
  const FeatureData& out = *result;
  double total = 0.0;
  for (double v : out.features[0].values()) total += v;
  double signed_mass = 0.0;
  for (uint32_t i = 0; i < 4; ++i) signed_mass += hasher.SignOf(i);
  EXPECT_DOUBLE_EQ(total, signed_mass);  // all signed mass preserved
  EXPECT_LE(out.features[0].nnz(), 2u);
}

TEST(FeatureHasherTest, LabelsPassThrough) {
  FeatureHasher hasher;
  auto result = Hash(&hasher, {"1 1:1.0", "-1 2:1.0"}, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, (std::vector<double>{1.0, -1.0}));
}

TEST(FeatureHasherTest, BucketsSpreadAcrossRange) {
  FeatureHasher::Options options;
  options.bits = 8;
  FeatureHasher hasher(options);
  std::set<uint32_t> buckets;
  for (uint32_t i = 0; i < 2000; ++i) buckets.insert(hasher.BucketOf(i));
  // With 2000 keys into 256 buckets nearly every bucket should be hit.
  EXPECT_GT(buckets.size(), 250u);
}

TEST(FeatureHasherTest, RejectsTableBatch) {
  // Placed right after a CSV parser there are no sparse rows to hash.
  FeatureHasher hasher;
  auto schema =
      std::move(Schema::Make({Field{"x", ValueType::kDouble}})).ValueOrDie();
  EXPECT_EQ(KernelHarness::Csv(schema, &hasher).Transform({"1"}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FeatureHasherTest, StatelessContract) {
  FeatureHasher hasher;
  EXPECT_FALSE(hasher.is_stateful());
  auto clone = hasher.Clone();
  EXPECT_EQ(static_cast<FeatureHasher*>(clone.get())->output_dim(),
            hasher.output_dim());
}

}  // namespace
}  // namespace cdpipe
