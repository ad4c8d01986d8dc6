#include "src/data/taxi_stream.h"

#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/testing/fault_injector.h"
#include "src/pipeline/anomaly_filter.h"
#include "src/pipeline/input_parser.h"
#include "src/pipeline/standard_scaler.h"
#include "src/pipeline/taxi_feature_extractor.h"
#include "src/pipeline/vector_assembler.h"

namespace cdpipe {
namespace {

// Manhattan-ish center and spread for trip endpoints.
constexpr double kCenterLat = 40.75;
constexpr double kCenterLon = -73.97;
constexpr double kCoordSigma = 0.035;

// Average speed (km/h) by hour of day on weekdays; weekends are uniformly
// faster.  The true model the linear pipeline has to approximate.
constexpr double kWeekdaySpeedKmh[24] = {
    30, 32, 33, 34, 33, 30, 24, 17, 13, 14, 16, 17,
    16, 16, 15, 14, 12, 11, 13, 16, 20, 23, 26, 28};
constexpr double kWeekendSpeedup = 1.25;
constexpr double kBaseOverheadSeconds = 90.0;

}  // namespace

TaxiStreamGenerator::TaxiStreamGenerator(Config config)
    : config_(config), rng_(config.seed),
      next_time_(config.start_time_seconds) {
  CDPIPE_CHECK_GT(config_.records_per_chunk, 0u);
}

double TaxiStreamGenerator::ExpectedDurationSeconds(double distance_km,
                                                    int hour_of_day,
                                                    bool weekend) {
  double speed = kWeekdaySpeedKmh[hour_of_day % 24];
  if (weekend) speed *= kWeekendSpeedup;
  return kBaseOverheadSeconds + distance_km / speed * 3600.0;
}

RawChunk TaxiStreamGenerator::NextChunk() {
  RawChunk chunk;
  chunk.id = next_id_++;
  chunk.event_time_seconds = next_time_;

  // Short-read fault: the upstream feed delivers only half a chunk (a
  // reader cut off mid-window).  The generator's Rng still advances per
  // produced record, exactly like a truncated file.
  size_t records_to_emit = config_.records_per_chunk;
  if (CDPIPE_FAULT_TRIGGERED("taxi_stream.short_read")) {
    records_to_emit /= 2;
  }

  for (size_t r = 0; r < records_to_emit; ++r) {
    const int64_t pickup =
        next_time_ + rng_.NextInt(0, config_.chunk_period_seconds - 1);
    double plat = rng_.NextGaussian(kCenterLat, kCoordSigma);
    double plon = rng_.NextGaussian(kCenterLon, kCoordSigma);
    double dlat = rng_.NextGaussian(kCenterLat, kCoordSigma);
    double dlon = rng_.NextGaussian(kCenterLon, kCoordSigma);
    const int64_t passengers = rng_.NextInt(1, 6);

    int64_t duration = 0;
    if (rng_.NextBernoulli(config_.anomaly_prob)) {
      // One of the three anomaly kinds the pipeline filters (§5.1).
      switch (rng_.NextBounded(3)) {
        case 0:  // the car never moved
          dlat = plat;
          dlon = plon;
          duration = rng_.NextInt(60, 600);
          break;
        case 1:  // implausibly long trip (> 22 hours)
          duration = rng_.NextInt(23 * 3600, 48 * 3600);
          break;
        default:  // implausibly short trip (< 10 seconds)
          duration = rng_.NextInt(0, 9);
          break;
      }
    } else {
      const double distance = HaversineKm(plat, plon, dlat, dlon);
      const int hour = static_cast<int>((pickup % 86400) / 3600);
      const int64_t days = pickup / 86400;
      const int weekday = static_cast<int>(((days % 7) + 7 + 3) % 7);
      const double expected =
          ExpectedDurationSeconds(distance, hour, weekday >= 5);
      const double noisy =
          expected * std::exp(rng_.NextGaussian(0.0, config_.noise_sigma));
      duration = std::max<int64_t>(11, static_cast<int64_t>(noisy));
    }

    chunk.records.push_back(StrFormat(
        "%s,%s,%.6f,%.6f,%.6f,%.6f,%lld", FormatDateTime(pickup).c_str(),
        FormatDateTime(pickup + duration).c_str(), plon, plat, dlon, dlat,
        static_cast<long long>(passengers)));
  }
  next_time_ += config_.chunk_period_seconds;
  return chunk;
}

std::vector<RawChunk> TaxiStreamGenerator::Generate(size_t n) {
  std::vector<RawChunk> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(NextChunk());
  return out;
}

std::shared_ptr<const Schema> TaxiRawSchema() {
  return std::move(Schema::Make({
                       Field{kTaxiPickupDatetime, ValueType::kTimestamp},
                       Field{kTaxiDropoffDatetime, ValueType::kTimestamp},
                       Field{kTaxiPickupLon, ValueType::kDouble},
                       Field{kTaxiPickupLat, ValueType::kDouble},
                       Field{kTaxiDropoffLon, ValueType::kDouble},
                       Field{kTaxiDropoffLat, ValueType::kDouble},
                       Field{"passenger_count", ValueType::kInt64},
                   }))
      .ValueOrDie();
}

std::unique_ptr<Pipeline> MakeTaxiPipeline() {
  auto pipeline = std::make_unique<Pipeline>();

  InputParser::Options parser;
  parser.format = InputParser::Format::kCsv;
  parser.csv_schema = TaxiRawSchema();
  CDPIPE_CHECK(
      pipeline->AddComponent(std::make_unique<InputParser>(parser)).ok());

  CDPIPE_CHECK(
      pipeline->AddComponent(std::make_unique<TaxiFeatureExtractor>()).ok());

  // Trips longer than 22 hours, shorter than 10 seconds, or with zero
  // distance are anomalies (§5.1).
  std::vector<AnomalyFilter::Rule> sanity_rules;
  sanity_rules.push_back(AnomalyFilter::Rule{"duration_s", 10.0, 22.0 * 3600.0,
                                             /*min_exclusive=*/false,
                                             /*max_exclusive=*/false});
  AnomalyFilter::Rule positive_distance;
  positive_distance.column = "haversine_km";
  positive_distance.min = 0.0;
  positive_distance.min_exclusive = true;
  sanity_rules.push_back(positive_distance);
  CDPIPE_CHECK(pipeline
                   ->AddComponent(std::make_unique<AnomalyFilter>(
                       "taxi-trip-sanity", std::move(sanity_rules)))
                   .ok());

  StandardScaler::Options scaler;
  scaler.columns = {"pickup_lon",     "pickup_lat",  "dropoff_lon",
                    "dropoff_lat",    "passenger_count", "haversine_km",
                    "bearing",        "hour_of_day", "hour_sin",
                    "hour_cos",       "day_of_week"};
  CDPIPE_CHECK(
      pipeline->AddComponent(std::make_unique<StandardScaler>(scaler)).ok());

  VectorAssembler::Options assembler;
  assembler.feature_columns = scaler.columns;
  assembler.label_column = "log_duration";
  assembler.add_intercept = true;
  CDPIPE_CHECK(
      pipeline->AddComponent(std::make_unique<VectorAssembler>(assembler))
          .ok());
  return pipeline;
}

LinearModel::Options MakeTaxiModelOptions(double l2_reg) {
  LinearModel::Options options;
  options.loss = LossKind::kSquared;
  options.l2_reg = l2_reg;
  options.fit_bias = true;
  options.init_bias_to_label_mean = true;
  options.initial_dim = 12;  // 11 features + intercept column
  return options;
}

}  // namespace cdpipe
