#include "tests/spec/pipeline_spec.h"

#include <cmath>
#include <functional>
#include <limits>
#include <string_view>

#include "src/common/string_util.h"
#include "src/linalg/sparse_vector.h"
#include "src/pipeline/anomaly_filter.h"
#include "src/pipeline/column_projector.h"
#include "src/pipeline/feature_hasher.h"
#include "src/pipeline/input_parser.h"
#include "src/pipeline/missing_value_imputer.h"
#include "src/pipeline/one_hot_encoder.h"
#include "src/pipeline/standard_scaler.h"
#include "src/pipeline/taxi_feature_extractor.h"
#include "src/pipeline/vector_assembler.h"
#include "src/pipeline/zscore_anomaly_detector.h"

namespace cdpipe {
namespace spec {
namespace {

/// Numeric cell; a null or string cell is a misconfigured fixture.
double Num(const Value& v) { return std::move(v.AsDouble()).ValueOrDie(); }

/// Collapses (index, value) pairs the way SparseVector::FromUnsorted does.
std::vector<std::pair<uint32_t, double>> Collapse(
    uint32_t dim, std::vector<std::pair<uint32_t, double>> entries) {
  const SparseVector x = SparseVector::FromUnsorted(dim, std::move(entries));
  std::vector<std::pair<uint32_t, double>> out;
  for (size_t k = 0; k < x.nnz(); ++k) {
    out.emplace_back(x.indices()[k], x.values()[k]);
  }
  return out;
}

class ParserSpec final : public Stage {
 public:
  explicit ParserSpec(InputParser::Options options)
      : options_(std::move(options)) {}

  Status Transform(Batch* batch) override {
    Batch out;
    out.vectorized = options_.format == InputParser::Format::kLibSvm;
    out.dim = options_.feature_dim;
    for (const Record& raw : batch->rows) {
      const std::string& line = raw.cells.at("raw").string_value();
      Record record;
      const bool ok = out.vectorized ? ParseLibSvm(line, &record)
                                     : ParseCsv(line, &record);
      if (ok) {
        out.rows.push_back(std::move(record));
      } else {
        ++dropped;
      }
    }
    *batch = std::move(out);
    return Status::OK();
  }

 private:
  bool ParseLibSvm(std::string_view line, Record* record) const {
    const std::vector<std::string_view> tokens = SplitString(line, ' ');
    if (tokens.empty()) return false;
    Result<double> label = ParseDouble(tokens[0]);
    if (!label.ok()) return false;
    record->label = *label;
    if (options_.binarize_labels) {
      record->label = record->label > 0.0 ? 1.0 : -1.0;
    }
    std::vector<std::pair<uint32_t, double>> entries;
    for (size_t t = 1; t < tokens.size(); ++t) {
      const std::string_view token = StripWhitespace(tokens[t]);
      if (token.empty()) continue;
      const size_t colon = token.find(':');
      if (colon == std::string_view::npos) return false;
      Result<int64_t> index = ParseInt64(token.substr(0, colon));
      if (!index.ok() || *index < 0 || *index >= options_.feature_dim) {
        return false;
      }
      const std::string_view text = token.substr(colon + 1);
      double value = std::numeric_limits<double>::quiet_NaN();
      if (text != "nan") {
        Result<double> parsed = ParseDouble(text);
        if (!parsed.ok()) return false;
        value = *parsed;
      }
      entries.emplace_back(static_cast<uint32_t>(*index), value);
    }
    record->entries = Collapse(options_.feature_dim, std::move(entries));
    return true;
  }

  bool ParseCsv(std::string_view line, Record* record) const {
    const Schema& schema = *options_.csv_schema;
    const std::vector<std::string_view> fields = SplitString(line, ',');
    if (fields.size() != schema.num_fields()) return false;
    for (size_t i = 0; i < fields.size(); ++i) {
      const std::string_view text = StripWhitespace(fields[i]);
      Value cell;
      if (!text.empty()) {
        switch (schema.field(i).type) {
          case ValueType::kDouble: {
            Result<double> v = ParseDouble(text);
            if (!v.ok()) return false;
            cell = Value::Double(*v);
            break;
          }
          case ValueType::kInt64: {
            Result<int64_t> v = ParseInt64(text);
            if (!v.ok()) return false;
            cell = Value::Int64(*v);
            break;
          }
          case ValueType::kTimestamp: {
            Result<int64_t> v = ParseDateTime(text);
            if (!v.ok()) return false;
            cell = Value::Timestamp(*v);
            break;
          }
          case ValueType::kString:
            cell = Value::String(std::string(text));
            break;
          case ValueType::kNull:
            break;
        }
      }
      record->cells[schema.field(i).name] = std::move(cell);
    }
    return true;
  }

  InputParser::Options options_;
};

/// Running mean per key: feature index (vectorized) or configured column.
class ImputerSpec final : public Stage {
 public:
  explicit ImputerSpec(MissingValueImputer::Options options)
      : options_(std::move(options)) {}

  bool stateful() const override { return true; }
  std::unique_ptr<Stage> Fresh() const override {
    return std::make_unique<ImputerSpec>(options_);
  }

  Status Update(const Batch& batch) override {
    for (const Record& row : batch.rows) {
      if (batch.vectorized) {
        for (const auto& [index, value] : row.entries) {
          if (!std::isnan(value)) Add(index, value);
        }
        continue;
      }
      for (size_t c = 0; c < options_.columns.size(); ++c) {
        const Value& cell = row.cells.at(options_.columns[c]);
        if (!cell.is_null()) Add(static_cast<uint32_t>(c), Num(cell));
      }
    }
    return Status::OK();
  }

  Status Transform(Batch* batch) override {
    for (Record& row : batch->rows) {
      if (batch->vectorized) {
        for (auto& [index, value] : row.entries) {
          if (std::isnan(value)) value = Mean(index);
        }
        continue;
      }
      for (size_t c = 0; c < options_.columns.size(); ++c) {
        Value& cell = row.cells.at(options_.columns[c]);
        if (cell.is_null()) cell = Value::Double(Mean(static_cast<uint32_t>(c)));
      }
    }
    return Status::OK();
  }

 private:
  void Add(uint32_t key, double value) {
    auto& [count, sum] = stats_[key];
    count += 1;
    sum += value;
  }

  double Mean(uint32_t key) const {
    auto it = stats_.find(key);
    if (it == stats_.end() || it->second.first == 0) {
      return options_.default_value;
    }
    return it->second.second / static_cast<double>(it->second.first);
  }

  MissingValueImputer::Options options_;
  std::map<uint32_t, std::pair<int64_t, double>> stats_;  // (count, sum)
};

/// Moments per key: over all rows with implicit zeros (vectorized), or
/// over a configured column's non-null cells (table).
class ScalerSpec final : public Stage {
 public:
  explicit ScalerSpec(StandardScaler::Options options)
      : options_(std::move(options)) {}

  bool stateful() const override { return true; }
  std::unique_ptr<Stage> Fresh() const override {
    return std::make_unique<ScalerSpec>(options_);
  }

  Status Update(const Batch& batch) override {
    for (const Record& row : batch.rows) {
      if (batch.vectorized) {
        ++rows_;
        for (const auto& [index, value] : row.entries) {
          if (!std::isnan(value)) Add(index, value);
        }
        continue;
      }
      for (size_t c = 0; c < options_.columns.size(); ++c) {
        const Value& cell = row.cells.at(options_.columns[c]);
        if (cell.is_null()) continue;
        Add(static_cast<uint32_t>(c), Num(cell));
        ++column_counts_[static_cast<uint32_t>(c)];
      }
    }
    return Status::OK();
  }

  Status Transform(Batch* batch) override {
    for (Record& row : batch->rows) {
      if (batch->vectorized) {
        for (auto& [index, value] : row.entries) {
          value = Scale(index, value, /*center=*/false, rows_);
        }
        continue;
      }
      for (size_t c = 0; c < options_.columns.size(); ++c) {
        Value& cell = row.cells.at(options_.columns[c]);
        if (cell.is_null()) continue;
        const uint32_t key = static_cast<uint32_t>(c);
        cell = Value::Double(Scale(key, Num(cell), /*center=*/true,
                                   column_counts_[key]));
      }
    }
    return Status::OK();
  }

 private:
  void Add(uint32_t key, double value) {
    auto& [sum, sum_squares] = moments_[key];
    sum += value;
    sum_squares += value * value;
  }

  double Scale(uint32_t key, double value, bool center, int64_t n) const {
    double mean = 0.0;
    double sd = 0.0;
    auto it = moments_.find(key);
    if (it != moments_.end() && n > 0) {
      mean = it->second.first / static_cast<double>(n);
      const double var =
          it->second.second / static_cast<double>(n) - mean * mean;
      sd = std::sqrt(var > 0.0 ? var : 0.0);
    }
    const double centered = center ? value - mean : value;
    return sd > StandardScaler::kMinStdDev ? centered / sd : centered;
  }

  StandardScaler::Options options_;
  int64_t rows_ = 0;
  std::map<uint32_t, std::pair<double, double>> moments_;  // (Σx, Σx²)
  std::map<uint32_t, int64_t> column_counts_;
};

class HasherSpec final : public Stage {
 public:
  explicit HasherSpec(FeatureHasher::Options options) : hasher_(options) {}

  Status Transform(Batch* batch) override {
    batch->dim = hasher_.output_dim();
    for (Record& row : batch->rows) {
      std::vector<std::pair<uint32_t, double>> hashed;
      for (const auto& [index, value] : row.entries) {
        hashed.emplace_back(hasher_.BucketOf(index),
                            hasher_.SignOf(index) * value);
      }
      row.entries = Collapse(batch->dim, std::move(hashed));
    }
    return Status::OK();
  }

 private:
  FeatureHasher hasher_;  // only for the bucket/sign functions
};

/// Dictionary per categorical column, slots assigned in arrival order.
class OneHotSpec final : public Stage {
 public:
  explicit OneHotSpec(OneHotEncoder::Options options)
      : options_(std::move(options)),
        dictionaries_(options_.categorical_columns.size()) {}

  bool stateful() const override { return true; }
  std::unique_ptr<Stage> Fresh() const override {
    return std::make_unique<OneHotSpec>(options_);
  }

  Status Update(const Batch& batch) override {
    for (const Record& row : batch.rows) {
      for (size_t c = 0; c < dictionaries_.size(); ++c) {
        const auto& column = options_.categorical_columns[c];
        const Value& cell = row.cells.at(column.name);
        if (cell.is_null()) continue;
        auto& dict = dictionaries_[c];
        if (dict.size() < column.max_cardinality &&
            dict.count(cell.string_value()) == 0) {
          const uint32_t slot = static_cast<uint32_t>(dict.size());
          dict[cell.string_value()] = slot;
        }
      }
    }
    return Status::OK();
  }

  Status Transform(Batch* batch) override {
    uint32_t dim = static_cast<uint32_t>(options_.numeric_columns.size());
    std::vector<uint32_t> offsets;
    for (const auto& column : options_.categorical_columns) {
      offsets.push_back(dim);
      dim += column.max_cardinality;
    }
    for (Record& row : batch->rows) {
      for (size_t i = 0; i < options_.numeric_columns.size(); ++i) {
        const Value& cell = row.cells.at(options_.numeric_columns[i]);
        if (!cell.is_null() && Num(cell) != 0.0) {
          row.entries.emplace_back(static_cast<uint32_t>(i), Num(cell));
        }
      }
      for (size_t c = 0; c < dictionaries_.size(); ++c) {
        const auto& column = options_.categorical_columns[c];
        const Value& cell = row.cells.at(column.name);
        if (cell.is_null()) continue;
        const std::string& value = cell.string_value();
        auto it = dictionaries_[c].find(value);
        const uint32_t slot =
            it != dictionaries_[c].end()
                ? it->second
                : static_cast<uint32_t>(
                      std::hash<std::string_view>{}(value) %
                      column.max_cardinality);
        row.entries.emplace_back(offsets[c] + slot, 1.0);
      }
      row.label = Num(row.cells.at(options_.label_column));
      row.cells.clear();
    }
    batch->vectorized = true;
    batch->dim = dim;
    return Status::OK();
  }

 private:
  OneHotEncoder::Options options_;
  std::vector<std::map<std::string, uint32_t>> dictionaries_;
};

class FilterSpec final : public Stage {
 public:
  explicit FilterSpec(std::vector<AnomalyFilter::Rule> rules)
      : rules_(std::move(rules)) {}

  Status Transform(Batch* batch) override {
    std::vector<Record> kept;
    for (Record& row : batch->rows) {
      if (InAllRanges(row)) {
        kept.push_back(std::move(row));
      } else {
        ++dropped;
      }
    }
    batch->rows = std::move(kept);
    return Status::OK();
  }

 private:
  bool InAllRanges(const Record& row) const {
    for (const AnomalyFilter::Rule& rule : rules_) {
      const Value& cell = row.cells.at(rule.column);
      if (cell.is_null()) return false;
      const double d = Num(cell);
      const bool above = rule.min_exclusive ? d > rule.min : d >= rule.min;
      const bool below = rule.max_exclusive ? d < rule.max : d <= rule.max;
      if (!(above && below)) return false;
    }
    return true;
  }

  std::vector<AnomalyFilter::Rule> rules_;
};

/// Welford (count, mean, M2) per configured column.
class ZScoreSpec final : public Stage {
 public:
  explicit ZScoreSpec(ZScoreAnomalyDetector::Options options)
      : options_(std::move(options)), stats_(options_.columns.size()) {}

  bool stateful() const override { return true; }
  std::unique_ptr<Stage> Fresh() const override {
    return std::make_unique<ZScoreSpec>(options_);
  }

  Status Update(const Batch& batch) override {
    for (const Record& row : batch.rows) {
      for (size_t c = 0; c < stats_.size(); ++c) {
        const Value& cell = row.cells.at(options_.columns[c]);
        if (cell.is_null()) continue;
        Welford& w = stats_[c];
        const double x = Num(cell);
        ++w.count;
        const double delta = x - w.mean;
        w.mean += delta / static_cast<double>(w.count);
        w.m2 += delta * (x - w.mean);
      }
    }
    return Status::OK();
  }

  Status Transform(Batch* batch) override {
    std::vector<Record> kept;
    for (Record& row : batch->rows) {
      bool anomalous = false;
      for (size_t c = 0; c < stats_.size(); ++c) {
        const Welford& w = stats_[c];
        if (w.count < options_.min_observations) continue;
        const double sd =
            std::sqrt(w.count > 1 ? w.m2 / static_cast<double>(w.count) : 0.0);
        if (sd <= 0.0) continue;
        const Value& cell = row.cells.at(options_.columns[c]);
        if (!cell.is_null() &&
            std::abs(Num(cell) - w.mean) > options_.threshold * sd) {
          anomalous = true;
        }
      }
      if (anomalous) {
        ++dropped;
      } else {
        kept.push_back(std::move(row));
      }
    }
    batch->rows = std::move(kept);
    return Status::OK();
  }

 private:
  struct Welford {
    int64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
  };

  ZScoreAnomalyDetector::Options options_;
  std::vector<Welford> stats_;
};

class TaxiSpec final : public Stage {
 public:
  Status Transform(Batch* batch) override {
    std::vector<Record> kept;
    for (Record& row : batch->rows) {
      const Value& pickup = row.cells.at(kTaxiPickupDatetime);
      const Value& dropoff = row.cells.at(kTaxiDropoffDatetime);
      const Value& plat = row.cells.at(kTaxiPickupLat);
      const Value& plon = row.cells.at(kTaxiPickupLon);
      const Value& dlat = row.cells.at(kTaxiDropoffLat);
      const Value& dlon = row.cells.at(kTaxiDropoffLon);
      if (pickup.is_null() || dropoff.is_null() || plat.is_null() ||
          plon.is_null() || dlat.is_null() || dlon.is_null()) {
        continue;  // no endpoints, no trip (not counted as a drop)
      }
      const TaxiDerivedRow d =
          DeriveTaxiRow(pickup.int64_value(), dropoff.int64_value(),
                        Num(plat), Num(plon), Num(dlat), Num(dlon));
      row.cells["duration_s"] = Value::Double(d.duration_s);
      row.cells["haversine_km"] = Value::Double(d.haversine_km);
      row.cells["bearing"] = Value::Double(d.bearing);
      row.cells["hour_of_day"] = Value::Double(d.hour_of_day);
      row.cells["hour_sin"] = Value::Double(d.hour_sin);
      row.cells["hour_cos"] = Value::Double(d.hour_cos);
      row.cells["day_of_week"] = Value::Double(d.day_of_week);
      row.cells["log_duration"] = Value::Double(d.log_duration);
      kept.push_back(std::move(row));
    }
    batch->rows = std::move(kept);
    return Status::OK();
  }
};

class ProjectorSpec final : public Stage {
 public:
  explicit ProjectorSpec(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  Status Transform(Batch* batch) override {
    for (Record& row : batch->rows) {
      std::map<std::string, Value> projected;
      for (const std::string& name : columns_) {
        projected[name] = row.cells.at(name);
      }
      row.cells = std::move(projected);
    }
    return Status::OK();
  }

 private:
  std::vector<std::string> columns_;
};

class AssemblerSpec final : public Stage {
 public:
  explicit AssemblerSpec(VectorAssembler::Options options)
      : options_(std::move(options)) {}

  Status Transform(Batch* batch) override {
    const size_t n = options_.feature_columns.size();
    for (Record& row : batch->rows) {
      for (size_t i = 0; i < n; ++i) {
        const Value& cell = row.cells.at(options_.feature_columns[i]);
        if (!cell.is_null() && Num(cell) != 0.0) {
          row.entries.emplace_back(static_cast<uint32_t>(i), Num(cell));
        }
      }
      if (options_.add_intercept) {
        row.entries.emplace_back(static_cast<uint32_t>(n), 1.0);
      }
      row.label = Num(row.cells.at(options_.label_column));
      row.cells.clear();
    }
    batch->vectorized = true;
    batch->dim = static_cast<uint32_t>(n + (options_.add_intercept ? 1 : 0));
    return Status::OK();
  }

 private:
  VectorAssembler::Options options_;
};

Result<std::unique_ptr<Stage>> SpecOf(const PipelineComponent& component) {
  if (const auto* c = dynamic_cast<const InputParser*>(&component)) {
    return std::unique_ptr<Stage>(new ParserSpec(c->options()));
  }
  if (const auto* c = dynamic_cast<const MissingValueImputer*>(&component)) {
    return std::unique_ptr<Stage>(new ImputerSpec(c->options()));
  }
  if (const auto* c = dynamic_cast<const StandardScaler*>(&component)) {
    return std::unique_ptr<Stage>(new ScalerSpec(c->options()));
  }
  if (const auto* c = dynamic_cast<const FeatureHasher*>(&component)) {
    return std::unique_ptr<Stage>(new HasherSpec(c->options()));
  }
  if (const auto* c = dynamic_cast<const OneHotEncoder*>(&component)) {
    return std::unique_ptr<Stage>(new OneHotSpec(c->options()));
  }
  if (const auto* c = dynamic_cast<const AnomalyFilter*>(&component)) {
    return std::unique_ptr<Stage>(new FilterSpec(c->rules()));
  }
  if (const auto* c =
          dynamic_cast<const ZScoreAnomalyDetector*>(&component)) {
    return std::unique_ptr<Stage>(new ZScoreSpec(c->options()));
  }
  if (dynamic_cast<const TaxiFeatureExtractor*>(&component) != nullptr) {
    return std::unique_ptr<Stage>(new TaxiSpec());
  }
  if (const auto* c = dynamic_cast<const ColumnProjector*>(&component)) {
    return std::unique_ptr<Stage>(new ProjectorSpec(c->columns()));
  }
  if (const auto* c = dynamic_cast<const VectorAssembler*>(&component)) {
    return std::unique_ptr<Stage>(new AssemblerSpec(c->options()));
  }
  return Status::Unimplemented("no spec for component " + component.name());
}

}  // namespace

Result<SpecPipeline> SpecPipeline::Of(const Pipeline& pipeline) {
  SpecPipeline out;
  for (size_t i = 0; i < pipeline.num_components(); ++i) {
    CDPIPE_ASSIGN_OR_RETURN(std::unique_ptr<Stage> stage,
                            SpecOf(pipeline.component(i)));
    out.stages_.push_back(std::move(stage));
  }
  return out;
}

Result<FeatureData> SpecPipeline::UpdateAndTransform(const RawChunk& chunk,
                                                     size_t* rows_scanned) {
  return Run(chunk, Mode::kOnline, rows_scanned);
}

Result<FeatureData> SpecPipeline::Transform(const RawChunk& chunk,
                                            size_t* rows_scanned) {
  return Run(chunk, Mode::kPure, rows_scanned);
}

Result<FeatureData> SpecPipeline::TransformRecomputingStatistics(
    const RawChunk& chunk, size_t* rows_scanned) {
  return Run(chunk, Mode::kRecompute, rows_scanned);
}

Result<FeatureData> SpecPipeline::Run(const RawChunk& chunk, Mode mode,
                                      size_t* rows_scanned) {
  Batch batch;
  for (const std::string& line : chunk.records) {
    Record record;
    record.cells["raw"] = Value::String(line);
    batch.rows.push_back(std::move(record));
  }
  for (const auto& deployed : stages_) {
    std::unique_ptr<Stage> fresh;
    Stage* stage = deployed.get();
    if (mode == Mode::kRecompute && stage->stateful()) {
      fresh = stage->Fresh();
      stage = fresh.get();
    }
    const bool update = mode != Mode::kPure && stage->stateful();
    if (rows_scanned != nullptr) {
      *rows_scanned += batch.rows.size() * (update ? 2 : 1);
    }
    if (update) CDPIPE_RETURN_NOT_OK(stage->Update(batch));
    CDPIPE_RETURN_NOT_OK(stage->Transform(&batch));
  }
  if (!batch.vectorized) {
    return Status::FailedPrecondition("spec pipeline did not vectorize");
  }
  FeatureData out;
  out.dim = batch.dim;
  for (Record& row : batch.rows) {
    std::vector<uint32_t> indices;
    std::vector<double> values;
    for (const auto& [index, value] : row.entries) {
      indices.push_back(index);
      values.push_back(value);
    }
    CDPIPE_ASSIGN_OR_RETURN(
        SparseVector x,
        SparseVector::FromSorted(batch.dim, std::move(indices),
                                 std::move(values)));
    out.features.push_back(std::move(x));
    out.labels.push_back(row.label);
  }
  return out;
}

size_t CounterOf(const PipelineComponent& component) {
  if (const auto* c = dynamic_cast<const InputParser*>(&component)) {
    return c->num_malformed();
  }
  if (const auto* c = dynamic_cast<const AnomalyFilter*>(&component)) {
    return c->num_dropped();
  }
  if (const auto* c =
          dynamic_cast<const ZScoreAnomalyDetector*>(&component)) {
    return c->num_dropped();
  }
  return 0;
}

}  // namespace spec
}  // namespace cdpipe
