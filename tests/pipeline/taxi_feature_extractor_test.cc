#include "src/pipeline/taxi_feature_extractor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

std::shared_ptr<const Schema> TripSchema() {
  return std::move(Schema::Make({
                       Field{"pickup_datetime", ValueType::kTimestamp},
                       Field{"dropoff_datetime", ValueType::kTimestamp},
                       Field{"pickup_lon", ValueType::kDouble},
                       Field{"pickup_lat", ValueType::kDouble},
                       Field{"dropoff_lon", ValueType::kDouble},
                       Field{"dropoff_lat", ValueType::kDouble},
                       Field{"label", ValueType::kDouble},
                   }))
      .ValueOrDie();
}

std::string MakeTrip(const std::string& pickup, const std::string& dropoff,
                     double plon, double plat, double dlon, double dlat) {
  return StrFormat("%s,%s,%.17g,%.17g,%.17g,%.17g,0", pickup.c_str(),
                   dropoff.c_str(), plon, plat, dlon, dlat);
}

const std::vector<std::string> kDerived = {
    "duration_s", "haversine_km", "bearing",     "hour_of_day",
    "hour_sin",   "hour_cos",     "day_of_week", "log_duration"};

/// Runs the extractor with an assembler over the eight derived columns, so
/// feature i of each output row is kDerived[i].
Result<FeatureData> Extract(TaxiFeatureExtractor* extractor,
                            const std::vector<std::string>& records) {
  return KernelHarness::Csv(TripSchema(), extractor, kDerived)
      .Transform(records);
}

TEST(HaversineTest, KnownDistances) {
  // Same point.
  EXPECT_NEAR(HaversineKm(40.75, -73.97, 40.75, -73.97), 0.0, 1e-9);
  // One degree of latitude is ~111.2 km.
  EXPECT_NEAR(HaversineKm(40.0, -73.97, 41.0, -73.97), 111.2, 0.5);
  // JFK (40.6413, -73.7781) to Times Square (40.7580, -73.9855): ~21 km.
  EXPECT_NEAR(HaversineKm(40.6413, -73.7781, 40.7580, -73.9855), 21.6, 1.0);
}

TEST(BearingTest, CardinalDirections) {
  EXPECT_NEAR(BearingDegrees(40.0, -74.0, 41.0, -74.0), 0.0, 0.5);     // north
  EXPECT_NEAR(BearingDegrees(41.0, -74.0, 40.0, -74.0), 180.0, 0.5);   // south
  EXPECT_NEAR(BearingDegrees(40.0, -74.0, 40.0, -73.0), 90.0, 1.0);    // east
  EXPECT_NEAR(BearingDegrees(40.0, -73.0, 40.0, -74.0), 270.0, 1.0);   // west
}

TEST(BearingTest, AlwaysInRange) {
  for (double dlat = -1.0; dlat <= 1.0; dlat += 0.25) {
    for (double dlon = -1.0; dlon <= 1.0; dlon += 0.25) {
      if (dlat == 0.0 && dlon == 0.0) continue;
      const double b = BearingDegrees(40.0, -74.0, 40.0 + dlat, -74.0 + dlon);
      EXPECT_GE(b, 0.0);
      EXPECT_LT(b, 360.0);
    }
  }
}

TEST(TaxiFeatureExtractorTest, ComputesAllDerivedColumns) {
  TaxiFeatureExtractor extractor;
  // Wednesday 2015-01-07, 08:30 pickup, 20-minute trip.
  auto result =
      Extract(&extractor, {MakeTrip("2015-01-07 08:30:00",
                                    "2015-01-07 08:50:00", -73.97, 40.75,
                                    -73.98, 40.78)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  const SparseVector& row = result->features[0];
  EXPECT_DOUBLE_EQ(row.Get(0), 1200.0);
  EXPECT_NEAR(row.Get(1), HaversineKm(40.75, -73.97, 40.78, -73.98), 1e-9);
  EXPECT_NEAR(row.Get(2), BearingDegrees(40.75, -73.97, 40.78, -73.98),
              1e-9);
  EXPECT_DOUBLE_EQ(row.Get(3), 8.0);
  EXPECT_DOUBLE_EQ(row.Get(6), 2.0);  // Wednesday
  EXPECT_NEAR(row.Get(7), std::log1p(1200.0), 1e-12);
}

TEST(TaxiFeatureExtractorTest, WeekdayAcrossWeek) {
  TaxiFeatureExtractor extractor;
  // 2015-01-05 is a Monday; sweep seven consecutive days.
  std::vector<std::string> records;
  for (int d = 0; d < 7; ++d) {
    records.push_back(MakeTrip(StrFormat("2015-01-%02d 12:00:00", 5 + d),
                               StrFormat("2015-01-%02d 12:10:00", 5 + d),
                               -73.97, 40.75, -73.98, 40.76));
  }
  auto result = Extract(&extractor, records);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 7u);
  for (int d = 0; d < 7; ++d) {
    EXPECT_DOUBLE_EQ(result->features[d].Get(6), d);
  }
}

TEST(TaxiFeatureExtractorTest, DropsRowsWithMissingEndpoints) {
  TaxiFeatureExtractor extractor;
  const std::string complete = MakeTrip(
      "2015-01-07 08:30:00", "2015-01-07 08:50:00", -73.97, 40.75, -73.98,
      40.78);
  const std::string incomplete =
      "2015-01-07 08:30:00,2015-01-07 08:50:00,,40.75,-73.98,40.78,0";
  auto result = Extract(&extractor, {complete, incomplete});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);
}

TEST(TaxiFeatureExtractorTest, MissingColumnErrors) {
  TaxiFeatureExtractor extractor;
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  auto result =
      KernelHarness::Csv(schema, &extractor, {"x"}).Transform({"1.0,0"});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(TaxiFeatureExtractorTest, StatelessContract) {
  TaxiFeatureExtractor extractor;
  EXPECT_FALSE(extractor.is_stateful());
  EXPECT_EQ(extractor.kind(), ComponentKind::kFeatureExtraction);
  EXPECT_NE(extractor.Clone(), nullptr);
}

}  // namespace
}  // namespace cdpipe
