#ifndef CDPIPE_LINALG_DENSE_VECTOR_H_
#define CDPIPE_LINALG_DENSE_VECTOR_H_

#include <cstddef>
#include <vector>

namespace cdpipe {

/// A contiguous double vector with the handful of BLAS-1 style operations the
/// training loops need.  Kept deliberately small: this library is not a
/// linear-algebra package, it is a deployment platform that happens to train
/// linear models.
class DenseVector {
 public:
  DenseVector() = default;
  explicit DenseVector(size_t dim, double fill = 0.0) : data_(dim, fill) {}
  explicit DenseVector(std::vector<double> values)
      : data_(std::move(values)) {}

  DenseVector(const DenseVector&) = default;
  DenseVector& operator=(const DenseVector&) = default;
  DenseVector(DenseVector&&) noexcept = default;
  DenseVector& operator=(DenseVector&&) noexcept = default;

  size_t dim() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](size_t i) const { return data_[i]; }
  double& operator[](size_t i) { return data_[i]; }

  const std::vector<double>& values() const { return data_; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Grows (zero-filling) or shrinks to `dim`.
  void Resize(size_t dim) { data_.resize(dim, 0.0); }

  /// this += alpha * other.  Dimensions must match.
  void Axpy(double alpha, const DenseVector& other);

  double L2NormSquared() const;
  double L2Norm() const;

  /// Memory footprint in bytes (used by the storage accounting).
  size_t ByteSize() const { return data_.size() * sizeof(double); }

 private:
  std::vector<double> data_;
};

}  // namespace cdpipe

#endif  // CDPIPE_LINALG_DENSE_VECTOR_H_
