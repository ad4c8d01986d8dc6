#include "src/linalg/dense_vector.h"

#include <cmath>

#include "src/common/logging.h"

namespace cdpipe {

void DenseVector::Axpy(double alpha, const DenseVector& other) {
  CDPIPE_CHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

double DenseVector::L2NormSquared() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double DenseVector::L2Norm() const { return std::sqrt(L2NormSquared()); }

}  // namespace cdpipe
