#ifndef CDPIPE_LINALG_SPARSE_VECTOR_H_
#define CDPIPE_LINALG_SPARSE_VECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace cdpipe {

/// Sorted-coordinate sparse vector.  Indices are strictly increasing
/// uint32_t; a nominal dimension bounds them.  This is the feature
/// representation produced by one-hot encoding and feature hashing, whose
/// O(p) storage guarantee (paper §3.2.1) depends on sparsity.
class SparseVector {
 public:
  SparseVector() = default;
  explicit SparseVector(uint32_t dim) : dim_(dim) {}

  /// Constructs from parallel arrays; indices must be strictly increasing
  /// and < dim.  Returns InvalidArgument otherwise.
  static Result<SparseVector> FromSorted(uint32_t dim,
                                         std::vector<uint32_t> indices,
                                         std::vector<double> values);

  /// Adopts parallel arrays without per-entry re-validation; the caller
  /// guarantees strictly increasing indices < dim.  Fused block kernels use
  /// this for rows whose entries already hold the collapsed VecBlock
  /// invariant (sorted, duplicates summed), where FromSorted's per-entry
  /// checks would re-prove what the kernel just established.  Debug builds
  /// re-assert the invariants.
  static SparseVector FromSortedUnchecked(uint32_t dim,
                                          std::vector<uint32_t> indices,
                                          std::vector<double> values);

  /// Constructs from possibly unsorted (index, value) pairs; duplicate
  /// indices are summed.
  static SparseVector FromUnsorted(
      uint32_t dim, std::vector<std::pair<uint32_t, double>> entries);

  /// Same construction, but through a caller-owned scratch buffer whose
  /// capacity is reused across calls (hot loops build thousands of rows).
  /// `*scratch` is sorted in place and its contents are unspecified after
  /// the call; the produced vector is bit-identical to
  /// `FromUnsorted(dim, *scratch)`.
  static SparseVector FromUnsortedInto(
      uint32_t dim, std::vector<std::pair<uint32_t, double>>* scratch);

  /// The preprocessing FromUnsorted applies before construction, exposed so
  /// fused kernels can collapse entries without materializing a vector:
  /// sorts `*scratch` by index (strictly increasing inputs skip the sort)
  /// and sums duplicate indices in place, left to right, leaving the buffer
  /// strictly sorted.  The summation order is exactly the one
  /// FromUnsortedInto uses, so downstream per-entry transforms see
  /// bit-identical values either way.
  static void SortAndCombineInto(
      std::vector<std::pair<uint32_t, double>>* scratch);

  /// Reserves capacity for `n` entries in both parallel arrays.
  void Reserve(size_t n) {
    indices_.reserve(n);
    values_.reserve(n);
  }

  SparseVector(const SparseVector&) = default;
  SparseVector& operator=(const SparseVector&) = default;
  SparseVector(SparseVector&&) noexcept = default;
  SparseVector& operator=(SparseVector&&) noexcept = default;

  uint32_t dim() const { return dim_; }
  size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }

  const std::vector<uint32_t>& indices() const { return indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Value at `index` (0.0 when absent); O(log nnz).
  double Get(uint32_t index) const;

  /// Applies `f(index, value) -> new_value` to every stored entry.
  template <typename F>
  void TransformValues(F&& f) {
    for (size_t k = 0; k < indices_.size(); ++k) {
      values_[k] = f(indices_[k], values_[k]);
    }
  }

  /// Memory footprint in bytes (index + value arrays).
  size_t ByteSize() const {
    return indices_.size() * (sizeof(uint32_t) + sizeof(double));
  }

  friend bool operator==(const SparseVector& a, const SparseVector& b) {
    return a.dim_ == b.dim_ && a.indices_ == b.indices_ &&
           a.values_ == b.values_;
  }

 private:
  uint32_t dim_ = 0;
  std::vector<uint32_t> indices_;
  std::vector<double> values_;
};

}  // namespace cdpipe

#endif  // CDPIPE_LINALG_SPARSE_VECTOR_H_
