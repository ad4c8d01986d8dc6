#include "src/pipeline/flat_key_map.h"

#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace cdpipe {
namespace {

constexpr uint32_t kMaxKey = 0xFFFFFFFFu;

TEST(FlatKeyMapTest, EmptyMapFindsNothing) {
  FlatKeyMap<int64_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find(kMaxKey), nullptr);
  EXPECT_TRUE(map.Sorted().empty());
}

TEST(FlatKeyMapTest, LookupsHoldAcrossGrowths) {
  // Dense feature indices, sparse random ones and the extreme keys: 3,000
  // keys take the table from 16 slots through eight doublings.
  FlatKeyMap<int64_t> map;
  std::map<uint32_t, int64_t> reference;
  Rng rng(42);
  auto put = [&](uint32_t key, int64_t value) {
    map[key] += value;
    reference[key] += value;
  };
  for (uint32_t key = 0; key < 1500; ++key) put(key, key + 1);
  for (int i = 0; i < 1500; ++i) {
    put(static_cast<uint32_t>(rng.NextUint64()), i);
  }
  put(kMaxKey, 7);
  // Updates through operator[] land on the existing slot.
  for (uint32_t key = 0; key < 1500; key += 3) put(key, 1000);

  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    const int64_t* found = map.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value) << key;
  }
  for (uint32_t key = 1500; key < 1600; ++key) {
    if (reference.count(key) == 0) {
      EXPECT_EQ(map.find(key), nullptr) << key;
    }
  }
  const auto sorted = map.Sorted();
  ASSERT_EQ(sorted.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, value] : reference) {
    EXPECT_EQ(sorted[i].first, key);
    EXPECT_EQ(sorted[i].second, value);
    ++i;
  }
}

TEST(FlatKeyMapTest, KeyZeroAndLargestKeyAreOrdinaryKeys) {
  // The empty-slot marker lies outside the uint32 key range, so neither
  // end of it is reserved.
  FlatKeyMap<double> map;
  EXPECT_EQ(map.find(0), nullptr);
  map[0] = 1.5;
  EXPECT_EQ(map.find(kMaxKey), nullptr);
  map[kMaxKey] = -2.5;
  ASSERT_NE(map.find(0), nullptr);
  ASSERT_NE(map.find(kMaxKey), nullptr);
  EXPECT_EQ(*map.find(0), 1.5);
  EXPECT_EQ(*map.find(kMaxKey), -2.5);
  EXPECT_EQ(map.size(), 2u);
  const auto sorted = map.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].first, 0u);
  EXPECT_EQ(sorted[1].first, kMaxKey);
}

TEST(FlatKeyMapTest, CopyIsUnchangedWhenItsSourceMutates) {
  FlatKeyMap<int64_t> source;
  for (uint32_t key = 0; key < 100; ++key) source[key * 7] = key;
  const FlatKeyMap<int64_t> copy = source;
  const auto before = copy.Sorted();

  for (uint32_t key = 0; key < 100; ++key) source[key * 7] += 1000;
  for (uint32_t key = 0; key < 500; ++key) source[1u << 20 | key] = -1;
  source.clear();
  source[3] = 3;

  EXPECT_EQ(copy.size(), 100u);
  EXPECT_EQ(copy.Sorted(), before);
  ASSERT_NE(copy.find(7 * 99), nullptr);
  EXPECT_EQ(*copy.find(7 * 99), 99);
  EXPECT_EQ(copy.find(1u << 20), nullptr);
}

TEST(FlatKeyMapTest, ClearForgetsEveryKey) {
  FlatKeyMap<int64_t> map;
  for (uint32_t key = 0; key < 40; ++key) map[key] = key;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  for (uint32_t key = 0; key < 40; ++key) EXPECT_EQ(map.find(key), nullptr);
  // A cleared map inserts value-initialized again.
  EXPECT_EQ(map[5], 0);
  map[5] += 2;
  EXPECT_EQ(*map.find(5), 2);
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace cdpipe
