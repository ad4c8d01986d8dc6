#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMeanApproximatesMidpoint) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.NextUniform(2.0, 6.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.02);
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(23);
  constexpr uint64_t kBuckets = 10;
  constexpr int kN = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kN; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kN / kBuckets, 500);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(31);
  constexpr int kN = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(37);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(41);
  constexpr int kN = 100000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(53);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 1000 draws
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(61);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

class SampleWithoutReplacementTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SampleWithoutReplacementTest, DistinctInRangeCorrectCount) {
  const auto [n, k] = GetParam();
  Rng rng(67);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(n, k);
  EXPECT_EQ(sample.size(), std::min(n, k));
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), sample.size());
  for (size_t s : sample) EXPECT_LT(s, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleWithoutReplacementTest,
    ::testing::Values(std::pair<size_t, size_t>{10, 3},
                      std::pair<size_t, size_t>{10, 10},
                      std::pair<size_t, size_t>{10, 20},
                      std::pair<size_t, size_t>{1000, 1},
                      std::pair<size_t, size_t>{1000, 500},
                      std::pair<size_t, size_t>{1000, 999},
                      std::pair<size_t, size_t>{5, 0},
                      std::pair<size_t, size_t>{100000, 10}));

TEST(RngTest, SampleWithoutReplacementIsUniform) {
  Rng rng(71);
  constexpr size_t kN = 20;
  constexpr size_t kK = 5;
  constexpr int kTrials = 40000;
  std::vector<int> counts(kN, 0);
  for (int t = 0; t < kTrials; ++t) {
    for (size_t s : rng.SampleWithoutReplacement(kN, kK)) ++counts[s];
  }
  const double expected = static_cast<double>(kTrials) * kK / kN;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.05);
  }
}

}  // namespace
}  // namespace cdpipe
