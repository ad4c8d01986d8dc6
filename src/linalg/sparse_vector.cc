#include "src/linalg/sparse_vector.h"

#include <algorithm>

#include "src/common/logging.h"

namespace cdpipe {

Result<SparseVector> SparseVector::FromSorted(uint32_t dim,
                                              std::vector<uint32_t> indices,
                                              std::vector<double> values) {
  if (indices.size() != values.size()) {
    return Status::InvalidArgument(
        "indices/values size mismatch: " + std::to_string(indices.size()) +
        " vs " + std::to_string(values.size()));
  }
  for (size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] >= dim) {
      return Status::OutOfRange("sparse index " + std::to_string(indices[k]) +
                                " >= dim " + std::to_string(dim));
    }
    if (k > 0 && indices[k] <= indices[k - 1]) {
      return Status::InvalidArgument(
          "sparse indices not strictly increasing at position " +
          std::to_string(k));
    }
  }
  SparseVector out(dim);
  out.indices_ = std::move(indices);
  out.values_ = std::move(values);
  return out;
}

SparseVector SparseVector::FromSortedUnchecked(uint32_t dim,
                                               std::vector<uint32_t> indices,
                                               std::vector<double> values) {
#ifndef NDEBUG
  CDPIPE_CHECK_EQ(indices.size(), values.size());
  for (size_t k = 0; k < indices.size(); ++k) {
    CDPIPE_CHECK_LT(indices[k], dim);
    if (k > 0) CDPIPE_CHECK_LT(indices[k - 1], indices[k]);
  }
#endif
  SparseVector out(dim);
  out.indices_ = std::move(indices);
  out.values_ = std::move(values);
  return out;
}

SparseVector SparseVector::FromUnsorted(
    uint32_t dim, std::vector<std::pair<uint32_t, double>> entries) {
  return FromUnsortedInto(dim, &entries);
}

void SparseVector::SortAndCombineInto(
    std::vector<std::pair<uint32_t, double>>* scratch) {
  std::vector<std::pair<uint32_t, double>>& entries = *scratch;
  // Strictly increasing inputs (common: parsers emit index-ordered records)
  // skip the sort.  The fast path requires *strict* order — with duplicate
  // keys an unstable sort may permute them, and duplicate values must be
  // summed in exactly the order std::sort leaves them to stay bit-identical
  // with the non-scratch construction.
  bool strictly_sorted = true;
  for (size_t k = 1; k < entries.size(); ++k) {
    if (entries[k].first <= entries[k - 1].first) {
      strictly_sorted = false;
      break;
    }
  }
  if (strictly_sorted) return;
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Sum duplicates left to right into the first occurrence.
  size_t w = 0;
  for (size_t k = 1; k < entries.size(); ++k) {
    if (entries[k].first == entries[w].first) {
      entries[w].second += entries[k].second;
    } else {
      entries[++w] = entries[k];
    }
  }
  if (!entries.empty()) entries.resize(w + 1);
}

SparseVector SparseVector::FromUnsortedInto(
    uint32_t dim, std::vector<std::pair<uint32_t, double>>* scratch) {
  SortAndCombineInto(scratch);
  const std::vector<std::pair<uint32_t, double>>& entries = *scratch;
  SparseVector out(dim);
  out.indices_.reserve(entries.size());
  out.values_.reserve(entries.size());
  for (const auto& [index, value] : entries) {
    CDPIPE_CHECK_LT(index, dim);
    out.indices_.push_back(index);
    out.values_.push_back(value);
  }
  return out;
}

double SparseVector::Get(uint32_t index) const {
  auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  if (it == indices_.end() || *it != index) return 0.0;
  return values_[static_cast<size_t>(it - indices_.begin())];
}

}  // namespace cdpipe
