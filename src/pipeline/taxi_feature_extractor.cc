#include "src/pipeline/taxi_feature_extractor.h"

#include <cmath>

#include "src/common/status.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {
namespace {

constexpr double kEarthRadiusKm = 6371.0;
constexpr double kDegToRad = M_PI / 180.0;

/// Transform kernel: marks null-endpoint rows dead on the shared keep mask
/// (a trip without both endpoints cannot yield features or a label) and
/// fills the eight derived slots.  Derived values are computed for every
/// physical row (dead rows carry parse placeholders, and DeriveTaxiRow is
/// total over them) — only live rows are ever read downstream, so this
/// keeps the loop branch-free without affecting output.
class ExtractTaxiStage final : public fusion::FusedStage {
 public:
  struct Slots {
    size_t pickup_dt;
    size_t dropoff_dt;
    size_t plat;
    size_t plon;
    size_t dlat;
    size_t dlon;
    size_t derived[8];
    size_t num_slots;
  };

  explicit ExtractTaxiStage(Slots slots) : slots_(slots) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    if (table.cols.size() < slots_.num_slots) {
      table.cols.resize(slots_.num_slots);
    }
    const fusion::BlockColumn& pu_col = table.cols[slots_.pickup_dt];
    const fusion::BlockColumn& doff_col = table.cols[slots_.dropoff_dt];
    // A runtime promotion (e.g. an imputer widening the datetime column)
    // invalidates the integer arithmetic below.
    if (pu_col.type == ValueType::kDouble ||
        doff_col.type == ValueType::kDouble ||
        pu_col.type == ValueType::kString ||
        doff_col.type == ValueType::kString) {
      return Status::FailedPrecondition(
          "taxi_feature_extractor expects integer datetime columns");
    }
    const fusion::BlockColumn& plat_col = table.cols[slots_.plat];
    const fusion::BlockColumn& plon_col = table.cols[slots_.plon];
    const fusion::BlockColumn& dlat_col = table.cols[slots_.dlat];
    const fusion::BlockColumn& dlon_col = table.cols[slots_.dlon];

    const size_t num_rows = table.num_rows;
    for (size_t r = 0; r < num_rows; ++r) {
      if (table.keep[r] == 0) continue;
      if (pu_col.IsNull(r) || doff_col.IsNull(r) || plat_col.IsNull(r) ||
          plon_col.IsNull(r) || dlat_col.IsNull(r) || dlon_col.IsNull(r)) {
        table.keep[r] = 0;
        --table.live_rows;
      }
    }

    for (size_t k = 0; k < 8; ++k) {
      fusion::BlockColumn& col = table.cols[slots_.derived[k]];
      col.Reset(ValueType::kDouble);
      col.d.resize(num_rows);
    }
    fusion::BlockColumn& duration_c = table.cols[slots_.derived[0]];
    fusion::BlockColumn& distance_c = table.cols[slots_.derived[1]];
    fusion::BlockColumn& bearing_c = table.cols[slots_.derived[2]];
    fusion::BlockColumn& hour_c = table.cols[slots_.derived[3]];
    fusion::BlockColumn& hour_sin_c = table.cols[slots_.derived[4]];
    fusion::BlockColumn& hour_cos_c = table.cols[slots_.derived[5]];
    fusion::BlockColumn& weekday_c = table.cols[slots_.derived[6]];
    fusion::BlockColumn& log_duration_c = table.cols[slots_.derived[7]];
    for (size_t r = 0; r < num_rows; ++r) {
      const TaxiDerivedRow row =
          DeriveTaxiRow(pu_col.i[r], doff_col.i[r], plat_col.NumericAt(r),
                        plon_col.NumericAt(r), dlat_col.NumericAt(r),
                        dlon_col.NumericAt(r));
      duration_c.d[r] = row.duration_s;
      distance_c.d[r] = row.haversine_km;
      bearing_c.d[r] = row.bearing;
      hour_c.d[r] = row.hour_of_day;
      hour_sin_c.d[r] = row.hour_sin;
      hour_cos_c.d[r] = row.hour_cos;
      weekday_c.d[r] = row.day_of_week;
      log_duration_c.d[r] = row.log_duration;
    }
    return Status::OK();
  }

 private:
  Slots slots_;
};

}  // namespace

double HaversineKm(double lat1, double lon1, double lat2, double lon2) {
  const double phi1 = lat1 * kDegToRad;
  const double phi2 = lat2 * kDegToRad;
  const double dphi = (lat2 - lat1) * kDegToRad;
  const double dlambda = (lon2 - lon1) * kDegToRad;
  const double a = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlambda / 2) *
                       std::sin(dlambda / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(1.0, a)));
}

double BearingDegrees(double lat1, double lon1, double lat2, double lon2) {
  const double phi1 = lat1 * kDegToRad;
  const double phi2 = lat2 * kDegToRad;
  const double dlambda = (lon2 - lon1) * kDegToRad;
  const double y = std::sin(dlambda) * std::cos(phi2);
  const double x = std::cos(phi1) * std::sin(phi2) -
                   std::sin(phi1) * std::cos(phi2) * std::cos(dlambda);
  double bearing = std::atan2(y, x) / kDegToRad;
  if (bearing < 0.0) bearing += 360.0;
  return bearing;
}

TaxiDerivedRow DeriveTaxiRow(int64_t pickup_seconds, int64_t dropoff_seconds,
                             double pickup_lat, double pickup_lon,
                             double dropoff_lat, double dropoff_lon) {
  TaxiDerivedRow out;
  const double duration =
      static_cast<double>(dropoff_seconds - pickup_seconds);
  out.duration_s = duration;
  out.haversine_km =
      HaversineKm(pickup_lat, pickup_lon, dropoff_lat, dropoff_lon);
  out.bearing =
      BearingDegrees(pickup_lat, pickup_lon, dropoff_lat, dropoff_lon);
  const double hour =
      static_cast<double>((pickup_seconds % 86400 + 86400) % 86400) / 3600.0;
  // 1970-01-01 was a Thursday; shift so 0 = Monday.
  const int64_t days = pickup_seconds / 86400;
  out.day_of_week = static_cast<double>(((days % 7) + 7 + 3) % 7);
  out.hour_of_day = std::floor(hour);
  out.hour_sin = std::sin(hour / 24.0 * 2.0 * M_PI);
  out.hour_cos = std::cos(hour / 24.0 * 2.0 * M_PI);
  out.log_duration = duration >= 0.0 ? std::log1p(duration) : 0.0;
  return out;
}

Status TaxiFeatureExtractor::Fuse(fusion::PlanBuilder* plan) {
  if (plan->repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition(
        "taxi_feature_extractor expects a table batch");
  }
  ExtractTaxiStage::Slots slots;
  CDPIPE_ASSIGN_OR_RETURN(slots.pickup_dt, plan->SlotOf(kTaxiPickupDatetime));
  CDPIPE_ASSIGN_OR_RETURN(slots.dropoff_dt,
                          plan->SlotOf(kTaxiDropoffDatetime));
  CDPIPE_ASSIGN_OR_RETURN(slots.plat, plan->SlotOf(kTaxiPickupLat));
  CDPIPE_ASSIGN_OR_RETURN(slots.plon, plan->SlotOf(kTaxiPickupLon));
  CDPIPE_ASSIGN_OR_RETURN(slots.dlat, plan->SlotOf(kTaxiDropoffLat));
  CDPIPE_ASSIGN_OR_RETURN(slots.dlon, plan->SlotOf(kTaxiDropoffLon));
  for (size_t dt : {slots.pickup_dt, slots.dropoff_dt}) {
    const ValueType t = plan->SlotDeclaredType(dt);
    if (t == ValueType::kDouble || t == ValueType::kString) {
      return Status::FailedPrecondition(
          "taxi_feature_extractor expects integer datetime columns");
    }
  }
  for (size_t coord : {slots.plat, slots.plon, slots.dlat, slots.dlon}) {
    if (plan->SlotDeclaredType(coord) == ValueType::kString) {
      return Status::FailedPrecondition(
          "taxi_feature_extractor expects numeric coordinate columns");
    }
  }
  static constexpr const char* kDerived[8] = {
      "duration_s", "haversine_km", "bearing",     "hour_of_day",
      "hour_sin",   "hour_cos",     "day_of_week", "log_duration"};
  for (size_t k = 0; k < 8; ++k) {
    CDPIPE_ASSIGN_OR_RETURN(slots.derived[k],
                            plan->AddSlot(Field{kDerived[k], ValueType::kDouble}));
  }
  slots.num_slots = plan->num_slots();
  plan->AddStage(std::make_unique<ExtractTaxiStage>(slots));
  return Status::OK();
}

std::unique_ptr<PipelineComponent> TaxiFeatureExtractor::Clone() const {
  return std::make_unique<TaxiFeatureExtractor>();
}

}  // namespace cdpipe
