#include "src/sampling/sampler.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

std::vector<ChunkId> Ids(size_t n) {
  std::vector<ChunkId> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<ChunkId>(i);
  return out;
}

void ExpectValidSample(const std::vector<ChunkId>& sample,
                       const std::vector<ChunkId>& live, size_t requested) {
  EXPECT_EQ(sample.size(), std::min(requested, live.size()));
  std::set<ChunkId> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), sample.size());
  for (ChunkId id : sample) {
    EXPECT_TRUE(std::find(live.begin(), live.end(), id) != live.end());
  }
}

class AllSamplersTest : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(AllSamplersTest, SampleIsDistinctAndLive) {
  auto sampler = MakeSampler(GetParam(), /*window_size=*/50);
  Rng rng(1);
  const auto live = Ids(100);
  // The window sampler draws from the most recent 50 chunks only, so its
  // sample size caps at the window size.
  const size_t cap = GetParam() == SamplerKind::kWindow ? 50 : live.size();
  for (size_t s : {1u, 10u, 99u, 100u, 150u}) {
    ExpectValidSample(sampler->Sample(live, s, &rng), live,
                      std::min(s, cap));
  }
}

TEST_P(AllSamplersTest, DeterministicGivenRng) {
  auto sampler = MakeSampler(GetParam(), 50);
  const auto live = Ids(200);
  Rng rng1(7);
  Rng rng2(7);
  EXPECT_EQ(sampler->Sample(live, 20, &rng1),
            sampler->Sample(live, 20, &rng2));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllSamplersTest,
                         ::testing::Values(SamplerKind::kUniform,
                                           SamplerKind::kWindow,
                                           SamplerKind::kTime));

TEST(UniformSamplerTest, CoversAllChunksUniformly) {
  UniformSampler sampler;
  Rng rng(11);
  const auto live = Ids(20);
  std::vector<int> counts(20, 0);
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    for (ChunkId id : sampler.Sample(live, 5, &rng)) ++counts[id];
  }
  const double expected = kTrials * 5.0 / 20.0;
  for (int c : counts) EXPECT_NEAR(c, expected, expected * 0.06);
}

TEST(WindowSamplerTest, OnlySamplesFromWindow) {
  WindowSampler sampler(10);
  Rng rng(13);
  const auto live = Ids(100);
  for (int t = 0; t < 100; ++t) {
    for (ChunkId id : sampler.Sample(live, 5, &rng)) {
      EXPECT_GE(id, 90);  // only the 10 most recent
    }
  }
}

TEST(WindowSamplerTest, WindowLargerThanLiveFallsBackToAll) {
  WindowSampler sampler(1000);
  Rng rng(17);
  const auto live = Ids(10);
  ExpectValidSample(sampler.Sample(live, 5, &rng), live, 5);
}

TEST(TimeBasedSamplerTest, PrefersRecentChunks) {
  TimeBasedSampler sampler;
  Rng rng(19);
  const auto live = Ids(100);
  int64_t newest_half = 0;
  int64_t total = 0;
  for (int t = 0; t < 2000; ++t) {
    for (ChunkId id : sampler.Sample(live, 10, &rng)) {
      ++total;
      if (id >= 50) ++newest_half;
    }
  }
  // With linear rank weights the newest half carries 75% of the mass.
  const double fraction = static_cast<double>(newest_half) / total;
  EXPECT_GT(fraction, 0.68);
  EXPECT_LT(fraction, 0.82);
}

TEST(TimeBasedSamplerTest, MarginalInclusionFollowsRankWeights) {
  // Single-draw (s=1) inclusion probability of chunk i should be
  // proportional to i+1.
  TimeBasedSampler sampler;
  Rng rng(23);
  const auto live = Ids(10);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 110000;
  for (int t = 0; t < kTrials; ++t) {
    ++counts[sampler.Sample(live, 1, &rng)[0]];
  }
  const double total_weight = 55.0;  // 1 + 2 + ... + 10
  for (size_t i = 0; i < 10; ++i) {
    const double expected = kTrials * (i + 1) / total_weight;
    EXPECT_NEAR(counts[i], expected, expected * 0.1 + 30) << "rank " << i;
  }
}

TEST(MakeSamplerTest, FactoryKinds) {
  EXPECT_NE(dynamic_cast<UniformSampler*>(
                MakeSampler(SamplerKind::kUniform).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<WindowSampler*>(
                MakeSampler(SamplerKind::kWindow, 5).get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<TimeBasedSampler*>(MakeSampler(SamplerKind::kTime).get()),
      nullptr);
  EXPECT_STREQ(SamplerKindName(SamplerKind::kUniform), "uniform");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kWindow), "window-based");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kTime), "time-based");
}

}  // namespace
}  // namespace cdpipe
