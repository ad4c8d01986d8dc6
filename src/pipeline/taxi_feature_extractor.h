#ifndef CDPIPE_PIPELINE_TAXI_FEATURE_EXTRACTOR_H_
#define CDPIPE_PIPELINE_TAXI_FEATURE_EXTRACTOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/pipeline/component.h"

namespace cdpipe {

/// The raw taxi columns the extractor reads; `TaxiRawSchema()` names its
/// fields with these.
inline constexpr const char* kTaxiPickupDatetime = "pickup_datetime";
inline constexpr const char* kTaxiDropoffDatetime = "dropoff_datetime";
inline constexpr const char* kTaxiPickupLat = "pickup_lat";
inline constexpr const char* kTaxiPickupLon = "pickup_lon";
inline constexpr const char* kTaxiDropoffLat = "dropoff_lat";
inline constexpr const char* kTaxiDropoffLon = "dropoff_lon";

/// Haversine distance in kilometers between two (lat, lon) points given in
/// degrees.
double HaversineKm(double lat1, double lon1, double lat2, double lon2);

/// Initial bearing in degrees [0, 360) from point 1 to point 2.
double BearingDegrees(double lat1, double lon1, double lat2, double lon2);

/// The eight derived per-trip features, in output column order.
struct TaxiDerivedRow {
  double duration_s;
  double haversine_km;
  double bearing;
  double hour_of_day;
  double hour_sin;
  double hour_cos;
  double day_of_week;
  double log_duration;
};

/// Computes the derived features for one trip (the transform kernel's
/// per-row arithmetic).
TaxiDerivedRow DeriveTaxiRow(int64_t pickup_seconds, int64_t dropoff_seconds,
                             double pickup_lat, double pickup_lon,
                             double dropoff_lat, double dropoff_lon);

/// The Taxi pipeline's feature extractor (paper §5.1), modeled after the top
/// NYC-Taxi-Duration Kaggle solutions: from pickup/dropoff timestamps and
/// coordinates it derives
///
///   - `duration_s`    — actual trip duration in seconds (the target; the
///                       paper folds this into the input parser, we keep the
///                       parser format-generic and compute it here with the
///                       same arithmetic),
///   - `haversine_km`  — great-circle trip distance,
///   - `bearing`       — initial bearing in degrees,
///   - `hour_of_day`   — pickup hour, 0-23,
///   - `hour_sin`, `hour_cos` — the pickup hour on the 24h circle, so a
///                       linear model can express the daily traffic cycle,
///   - `day_of_week`   — pickup weekday, 0=Monday .. 6=Sunday,
///   - `log_duration`  — log1p(duration_s), the regression target under the
///                       RMSLE metric.
///
/// Stateless feature extraction (Table 1): new columns, linear output size.
class TaxiFeatureExtractor : public PipelineComponent {
 public:
  std::string name() const override { return "taxi_feature_extractor"; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  std::unique_ptr<PipelineComponent> Clone() const override;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_TAXI_FEATURE_EXTRACTOR_H_
