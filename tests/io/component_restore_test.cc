// Component state restore must not trust the checkpoint: a well-formed,
// checksummed file can still come from a differently configured component
// or be crafted.  Out-of-range one-hot slots would index past the model's
// dimension, and counts stored as doubles are cast to int64_t.  Each bad
// state is rejected with InvalidArgument and leaves the component as it
// was.

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/io/serialization.h"
#include "src/pipeline/missing_value_imputer.h"
#include "src/pipeline/one_hot_encoder.h"
#include "src/pipeline/standard_scaler.h"
#include "src/pipeline/zscore_anomaly_detector.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Serialized one-hot state for one categorical column.
std::string OneHotState(int64_t dict_size,
                        const std::vector<std::pair<std::string, int64_t>>&
                            entries) {
  std::ostringstream os;
  Serializer out(&os);
  out.WriteInt("onehot.num_columns", 1);
  out.WriteInt("onehot.dict_size", dict_size);
  for (const auto& [value, slot] : entries) {
    out.WriteString("onehot.value", value);
    out.WriteInt("onehot.slot", slot);
  }
  return os.str();
}

Status Load(PipelineComponent* component, const std::string& state) {
  std::istringstream is(state);
  Deserializer in(&is);
  return component->LoadState(&in);
}

OneHotEncoder::Options EncoderOptions(uint32_t capacity) {
  OneHotEncoder::Options options;
  options.categorical_columns = {{"color", capacity}};
  options.label_column = "label";
  return options;
}

/// An encoder whose dictionary holds "red" -> 0, "blue" -> 1.
OneHotEncoder TrainedEncoder(uint32_t capacity) {
  OneHotEncoder encoder(EncoderOptions(capacity));
  auto schema = std::move(Schema::Make({Field{"color", ValueType::kString},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  CDPIPE_CHECK(
      KernelHarness::Csv(schema, &encoder).Update({"red,1", "blue,0"}).ok());
  return encoder;
}

void ExpectEncoderUnchanged(const OneHotEncoder& encoder) {
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);
  EXPECT_EQ(encoder.SlotOf(0, "red"), 0u);
  EXPECT_EQ(encoder.SlotOf(0, "blue"), 1u);
}

TEST(ComponentRestoreTest, OneHotRejectsSlotAtOrAboveCapacity) {
  OneHotEncoder encoder = TrainedEncoder(4);
  const Status status = Load(&encoder, OneHotState(1, {{"x", 4}}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectEncoderUnchanged(encoder);
  EXPECT_EQ(Load(&encoder, OneHotState(1, {{"x", -1}})).code(),
            StatusCode::kInvalidArgument);
  ExpectEncoderUnchanged(encoder);
}

TEST(ComponentRestoreTest, OneHotRejectsDuplicateSlots) {
  OneHotEncoder encoder = TrainedEncoder(4);
  const Status status = Load(&encoder, OneHotState(2, {{"x", 1}, {"y", 1}}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectEncoderUnchanged(encoder);
}

TEST(ComponentRestoreTest, OneHotRejectsDictionaryLargerThanCapacity) {
  // A valid checkpoint of an encoder configured with a larger block.
  OneHotEncoder wide(EncoderOptions(8));
  auto schema = std::move(Schema::Make({Field{"color", ValueType::kString},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  ASSERT_TRUE(KernelHarness::Csv(schema, &wide)
                  .Update({"a,0", "b,0", "c,0", "d,0", "e,0", "f,0"})
                  .ok());
  std::ostringstream os;
  Serializer out(&os);
  ASSERT_TRUE(wide.SaveState(&out).ok());

  OneHotEncoder encoder = TrainedEncoder(4);
  const Status status = Load(&encoder, os.str());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectEncoderUnchanged(encoder);
}

TEST(ComponentRestoreTest, OneHotAcceptsPermutedDenseSlots) {
  OneHotEncoder encoder = TrainedEncoder(4);
  ASSERT_TRUE(
      Load(&encoder, OneHotState(3, {{"c", 2}, {"a", 0}, {"b", 1}})).ok());
  EXPECT_EQ(encoder.CardinalityOf(0), 3u);
  EXPECT_EQ(encoder.SlotOf(0, "c"), 2u);
}

/// Invalid counts: NaN, negative, non-integral, and beyond int64_t.
const std::vector<double> kBadCounts = {kNan, -1.0, 2.5, 1e19};

TEST(ComponentRestoreTest, ImputerRejectsInvalidCounts) {
  MissingValueImputer imputer;
  ASSERT_TRUE(KernelHarness::LibSvm(&imputer, 8).Update({"1 0:4"}).ok());
  for (double count : kBadCounts) {
    std::ostringstream os;
    Serializer out(&os);
    out.WriteUint32Vector("imputer.dims", {0});
    out.WriteDoubleVector("imputer.counts", {count});
    out.WriteDoubleVector("imputer.sums", {1.0});
    EXPECT_EQ(Load(&imputer, os.str()).code(), StatusCode::kInvalidArgument)
        << count;
    EXPECT_EQ(imputer.MeanForDimension(0), 4.0) << count;
  }
}

TEST(ComponentRestoreTest, ScalerRejectsInvalidCounts) {
  StandardScaler scaler;
  ASSERT_TRUE(KernelHarness::LibSvm(&scaler, 8).Update({"1 0:2", "1"}).ok());
  for (double count : kBadCounts) {
    std::ostringstream os;
    Serializer out(&os);
    out.WriteInt("scaler.total_rows", 5);
    out.WriteInt("scaler.table_mode", 1);
    out.WriteUint32Vector("scaler.keys", {0});
    out.WriteDoubleVector("scaler.sums", {1.0});
    out.WriteDoubleVector("scaler.sum_squares", {1.0});
    out.WritePairs("scaler.column_counts", {{0, count}});
    EXPECT_EQ(Load(&scaler, os.str()).code(), StatusCode::kInvalidArgument)
        << count;
    EXPECT_EQ(scaler.ObservationCount(), 2) << count;
    EXPECT_EQ(scaler.MeanOf(0), 1.0) << count;
  }
  // A negative row total is rejected the same way.
  std::ostringstream os;
  Serializer out(&os);
  out.WriteInt("scaler.total_rows", -3);
  out.WriteInt("scaler.table_mode", 0);
  out.WriteUint32Vector("scaler.keys", {});
  out.WriteDoubleVector("scaler.sums", {});
  out.WriteDoubleVector("scaler.sum_squares", {});
  out.WritePairs("scaler.column_counts", {});
  EXPECT_EQ(Load(&scaler, os.str()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scaler.ObservationCount(), 2);
}

TEST(ComponentRestoreTest, ZScoreRejectsInvalidCounts) {
  ZScoreAnomalyDetector::Options options;
  options.columns = {"x"};
  ZScoreAnomalyDetector detector(options);
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  ASSERT_TRUE(KernelHarness::Csv(schema, &detector, {"x"})
                  .Update({"1,0", "3,0"})
                  .ok());
  for (double count : kBadCounts) {
    std::ostringstream os;
    Serializer out(&os);
    out.WriteInt("zscore.num_columns", 1);
    out.WriteDoubleVector("zscore.counts", {count});
    out.WriteDoubleVector("zscore.means", {0.0});
    out.WriteDoubleVector("zscore.m2s", {0.0});
    EXPECT_EQ(Load(&detector, os.str()).code(), StatusCode::kInvalidArgument)
        << count;
    EXPECT_EQ(detector.CountOf(0), 2) << count;
    EXPECT_EQ(detector.MeanOf(0), 2.0) << count;
  }
}

}  // namespace
}  // namespace cdpipe
