#include "src/engine/execution_engine.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(ExecutionEngineTest, SingleThreadedRunsInline) {
  ExecutionEngine engine(1);
  EXPECT_EQ(engine.num_threads(), 1u);
  std::vector<int> order;
  Status status = engine.ParallelFor(5, [&](size_t i) {
    order.push_back(static_cast<int>(i));
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));  // in order, inline
}

TEST(ExecutionEngineTest, ParallelRunsEverything) {
  ExecutionEngine engine(4);
  EXPECT_EQ(engine.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(64);
  Status status = engine.ParallelFor(64, [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutionEngineTest, FirstErrorWins) {
  ExecutionEngine engine(1);
  Status status = engine.ParallelFor(10, [&](size_t i) -> Status {
    if (i == 3) return Status::Internal("three");
    if (i == 7) return Status::Internal("seven");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "three");
}

TEST(ExecutionEngineTest, ParallelErrorReportsLowestIndex) {
  ExecutionEngine engine(4);
  Status status = engine.ParallelFor(32, [&](size_t i) -> Status {
    if (i % 2 == 1) return Status::Internal("idx" + std::to_string(i));
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "idx1");
}

TEST(ExecutionEngineTest, SingleThreadedStopsAtFirstError) {
  ExecutionEngine engine(1);
  int ran = 0;
  Status status = engine.ParallelFor(10, [&](size_t i) -> Status {
    ++ran;
    if (i == 2) return Status::Internal("stop");
    return Status::OK();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ran, 3);  // inline execution aborts immediately
}

TEST(ExecutionEngineTest, ZeroTasksIsOk) {
  ExecutionEngine engine(2);
  EXPECT_TRUE(engine.ParallelFor(0, [](size_t) {
    return Status::Internal("never");
  }).ok());
}

TEST(ExecutionEngineTest, RangeSingleThreadedRunsBlocksInOrder) {
  ExecutionEngine engine(1);
  std::vector<std::pair<size_t, size_t>> blocks;
  // One worker: blocks of max(1, 10 / 4) = 2 indices.
  Status status = engine.ParallelForRange(10, [&](size_t begin, size_t end) {
    blocks.push_back({begin, end});
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(blocks, (std::vector<std::pair<size_t, size_t>>{
                        {0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}}));
}

TEST(ExecutionEngineTest, RangeCoversEveryIndexExactlyOnce) {
  ExecutionEngine engine(4);
  std::vector<std::atomic<int>> hits(1000);
  // The block size follows from count and thread count.
  Status status = engine.ParallelForRange(1000, [&](size_t begin,
                                                    size_t end) {
    EXPECT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutionEngineTest, RangeZeroCountIsOk) {
  ExecutionEngine engine(2);
  EXPECT_TRUE(engine
                  .ParallelForRange(0,
                                    [](size_t, size_t) {
                                      return Status::Internal("never");
                                    })
                  .ok());
}

TEST(ExecutionEngineTest, RangeErrorReportsLowestBlock) {
  ExecutionEngine engine(4);
  // Blocks of max(1, 40 / 16) = 2 indices.
  Status status =
      engine.ParallelForRange(40, [&](size_t begin, size_t) -> Status {
        if (begin == 10 || begin == 30) {
          return Status::Internal("begin" + std::to_string(begin));
        }
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "begin10");
}

TEST(ExecutionEngineTest, RangeSingleThreadedStopsAtFirstError) {
  ExecutionEngine engine(1);
  int blocks_run = 0;
  Status status =
      engine.ParallelForRange(20, [&](size_t begin, size_t) -> Status {
        ++blocks_run;
        if (begin == 10) return Status::Internal("stop");
        return Status::OK();
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(blocks_run, 3);  // blocks [0,5) [5,10) [10,15), then abort
}

}  // namespace
}  // namespace cdpipe
