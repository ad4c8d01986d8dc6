#include "src/dataframe/chunk.h"

#include <string>

#include <gtest/gtest.h>

#include "src/dataframe/column.h"

namespace cdpipe {
namespace {

TEST(ColumnTest, ByteSizeCountsNullBitmapWords) {
  Column column(ValueType::kDouble);
  column.AppendDouble(1.0);
  const size_t before = column.ByteSize();
  column.AppendNull();
  // The second row adds its placeholder double plus the lazily allocated
  // bitmap word (one uint64 covers the first 64 rows).
  EXPECT_EQ(column.ByteSize(), before + sizeof(double) + sizeof(uint64_t));
}

TEST(ColumnTest, ByteSizeOfBorrowedColumnExcludesPayload) {
  const std::string record(1000, 'x');
  Column borrowed(ValueType::kString);
  borrowed.AppendBorrowedString(record);

  Column owned(ValueType::kString);
  owned.AppendString(record);

  // The borrowed column accounts only its view table — the kilobyte of
  // payload belongs to the raw chunk.  The owned column pays the arena.
  EXPECT_EQ(borrowed.ByteSize(), sizeof(std::string_view));
  EXPECT_GE(owned.ByteSize(), record.size());
}

TEST(FeatureDataTest, ValidatePasses) {
  FeatureData data;
  data.dim = 4;
  data.features.push_back(SparseVector::FromUnsorted(4, {{1, 1.0}}));
  data.labels.push_back(1.0);
  EXPECT_TRUE(data.Validate().ok());
}

TEST(FeatureDataTest, ValidateCatchesCountMismatch) {
  FeatureData data;
  data.dim = 4;
  data.features.push_back(SparseVector::FromUnsorted(4, {{1, 1.0}}));
  EXPECT_FALSE(data.Validate().ok());
}

TEST(FeatureDataTest, ValidateCatchesDimMismatch) {
  FeatureData data;
  data.dim = 4;
  data.features.push_back(SparseVector::FromUnsorted(5, {{1, 1.0}}));
  data.labels.push_back(1.0);
  EXPECT_FALSE(data.Validate().ok());
}

TEST(FeatureDataTest, ByteSizeCountsEntriesAndLabels) {
  FeatureData features;
  features.dim = 3;
  features.features.push_back(SparseVector::FromUnsorted(3, {{0, 1.0}}));
  features.labels.push_back(-1.0);
  EXPECT_EQ(features.num_rows(), 1u);
  EXPECT_EQ(features.ByteSize(),
            sizeof(double) + sizeof(uint32_t) + sizeof(double));
}

TEST(RawChunkTest, ByteSizeSumsRecords) {
  RawChunk chunk;
  chunk.records = {"abc", "de"};
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.ByteSize(), 5u);
}

TEST(FeatureChunkTest, ForwardsToData) {
  FeatureChunk chunk;
  chunk.origin_id = 9;
  chunk.data.dim = 2;
  chunk.data.features.push_back(SparseVector::FromUnsorted(2, {{0, 1.0}}));
  chunk.data.labels.push_back(1.0);
  EXPECT_EQ(chunk.num_rows(), 1u);
  EXPECT_GT(chunk.ByteSize(), 0u);
}

}  // namespace
}  // namespace cdpipe
