#ifndef CDPIPE_ML_METRICS_H_
#define CDPIPE_ML_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>

namespace cdpipe {

/// Streaming evaluation metric: feed (prediction, label) pairs, read the
/// aggregate at any point.  All implementations are O(1) per observation —
/// a requirement of prequential evaluation over long deployments.
class Metric {
 public:
  virtual ~Metric() = default;

  virtual std::string name() const = 0;
  virtual void Add(double prediction, double label) = 0;
  /// Current aggregate value; 0 before any observation.
  double Value() const { return ValueOf(AggregateMass(), Count()); }
  virtual int64_t Count() const = 0;
  /// Sum of the additive per-example error signal underlying the metric
  /// (error count for misclassification, sum of squared errors for RMSE).
  /// Differences of this mass across a chunk give the chunk's mean error
  /// signal — the input of the drift detectors.
  virtual double AggregateMass() const = 0;
  /// The metric over `count` observations whose summed mass is `mass`; 0
  /// when `count` is 0.  Pooling two metrics' masses and counts gives the
  /// metric of their union, which averaging their values does not for RMSE.
  virtual double ValueOf(double mass, int64_t count) const = 0;
  virtual void Reset() = 0;
  virtual std::unique_ptr<Metric> Clone() const = 0;
};

/// Fraction of observations where sign(prediction) != sign(label).
/// Labels are expected in {-1, +1}; the raw margin is accepted as the
/// prediction.
class MisclassificationRate final : public Metric {
 public:
  std::string name() const override { return "misclassification"; }
  void Add(double prediction, double label) override;
  int64_t Count() const override { return count_; }
  double AggregateMass() const override {
    return static_cast<double>(errors_);
  }
  double ValueOf(double mass, int64_t count) const override;
  void Reset() override { count_ = errors_ = 0; }
  std::unique_ptr<Metric> Clone() const override {
    return std::make_unique<MisclassificationRate>(*this);
  }

 private:
  int64_t count_ = 0;
  int64_t errors_ = 0;
};

/// Root mean squared error.  When predictions and labels are log1p-space
/// values (as in the Taxi pipeline, which regresses log1p(duration)), this
/// equals the RMSLE of the raw-space predictions.
class Rmse final : public Metric {
 public:
  std::string name() const override { return "rmse"; }
  void Add(double prediction, double label) override;
  int64_t Count() const override { return count_; }
  double AggregateMass() const override { return sum_squared_error_; }
  double ValueOf(double mass, int64_t count) const override;
  void Reset() override {
    count_ = 0;
    sum_squared_error_ = 0.0;
  }
  std::unique_ptr<Metric> Clone() const override {
    return std::make_unique<Rmse>(*this);
  }

 private:
  int64_t count_ = 0;
  double sum_squared_error_ = 0.0;
};

}  // namespace cdpipe

#endif  // CDPIPE_ML_METRICS_H_
