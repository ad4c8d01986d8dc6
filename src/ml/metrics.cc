#include "src/ml/metrics.h"

#include <cmath>

namespace cdpipe {

void MisclassificationRate::Add(double prediction, double label) {
  ++count_;
  const bool predicted_positive = prediction >= 0.0;
  const bool actual_positive = label > 0.0;
  if (predicted_positive != actual_positive) ++errors_;
}

double MisclassificationRate::ValueOf(double mass, int64_t count) const {
  if (count == 0) return 0.0;
  return mass / static_cast<double>(count);
}

void Rmse::Add(double prediction, double label) {
  ++count_;
  const double diff = prediction - label;
  sum_squared_error_ += diff * diff;
}

double Rmse::ValueOf(double mass, int64_t count) const {
  if (count == 0) return 0.0;
  return std::sqrt(mass / static_cast<double>(count));
}

}  // namespace cdpipe
