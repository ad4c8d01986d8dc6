#ifndef CDPIPE_DRIFT_DRIFT_DETECTOR_H_
#define CDPIPE_DRIFT_DRIFT_DETECTOR_H_

#include <cstdint>
#include <memory>

namespace cdpipe {

/// Concept-drift detection — the paper's stated future work (§7: "we plan
/// to extend our platform to provide native support for both concept drift
/// and anomaly detection and alleviation").  Detectors consume a stream of
/// per-example error signals (0/1 misclassification indicators or positive
/// losses) and report when the error level rises significantly above its
/// running baseline.
enum class DriftState {
  kStable = 0,  ///< no evidence of drift
  kWarning,     ///< error creeping up; start collecting fresh data
  kDrift,       ///< change confirmed; the deployed model is stale
};

class DriftDetector {
 public:
  virtual ~DriftDetector() = default;

  /// Feeds one error observation and returns the detector state.
  virtual DriftState Observe(double error) = 0;

  virtual DriftState state() const = 0;
  virtual int64_t observations() const = 0;
  /// Total number of confirmed drifts so far.
  virtual int64_t drifts_detected() const = 0;

  /// Forgets the baseline and restarts (called after the platform has
  /// adapted to the new concept).
  virtual void Reset() = 0;

  virtual std::unique_ptr<DriftDetector> Clone() const = 0;
};

/// Page-Hinkley test: detects an increase of the mean of the error signal.
/// Maintains m_t = Σ (e_i - ē_i - δ) and fires when m_t - min(m_t) > λ.
/// δ absorbs tolerated noise, λ sets the detection threshold; larger λ means
/// fewer false alarms but slower detection.  Warns once the statistic
/// crosses λ / 2.
class PageHinkleyDetector final : public DriftDetector {
 public:
  struct Options {
    double delta = 0.005;     ///< tolerated per-observation drift
    double lambda = 50.0;     ///< detection threshold
    /// Observations to ignore while the baseline mean stabilizes.
    int64_t burn_in = 30;
  };

  PageHinkleyDetector() : PageHinkleyDetector(Options()) {}
  explicit PageHinkleyDetector(Options options);

  DriftState Observe(double error) override;
  DriftState state() const override { return state_; }
  int64_t observations() const override { return count_; }
  int64_t drifts_detected() const override { return drifts_; }
  void Reset() override;
  std::unique_ptr<DriftDetector> Clone() const override {
    return std::make_unique<PageHinkleyDetector>(*this);
  }

  /// Current test statistic m_t - min(m_t) (exposed for tests).
  double Statistic() const { return cumulative_ - minimum_; }

 private:
  Options options_;
  DriftState state_ = DriftState::kStable;
  int64_t count_ = 0;
  int64_t drifts_ = 0;
  double mean_ = 0.0;
  double cumulative_ = 0.0;
  double minimum_ = 0.0;
};

/// DDM (Gama et al. 2004): models the error rate of a classifier as a
/// Bernoulli proportion p with standard deviation s = sqrt(p(1-p)/n) and
/// tracks the minimum of p + s.  Warning at p + s > p_min + 2 s_min, drift
/// at p + s > p_min + 3 s_min.  Accepts 0/1 indicators or fractional
/// error rates in [0, 1] (chunk-level means).
class DdmDetector final : public DriftDetector {
 public:
  struct Options {
    int64_t min_observations = 30;
  };

  DdmDetector() : DdmDetector(Options()) {}
  explicit DdmDetector(Options options);

  DriftState Observe(double error) override;
  DriftState state() const override { return state_; }
  int64_t observations() const override { return count_; }
  int64_t drifts_detected() const override { return drifts_; }
  void Reset() override;
  std::unique_ptr<DriftDetector> Clone() const override {
    return std::make_unique<DdmDetector>(*this);
  }

  double ErrorRate() const;

 private:
  Options options_;
  DriftState state_ = DriftState::kStable;
  int64_t count_ = 0;
  double errors_ = 0.0;
  int64_t drifts_ = 0;
  double min_p_plus_s_ = 1e300;
  double min_s_ = 0.0;
  double min_p_ = 0.0;
};

}  // namespace cdpipe

#endif  // CDPIPE_DRIFT_DRIFT_DETECTOR_H_
