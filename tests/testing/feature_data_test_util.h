#ifndef CDPIPE_TESTS_TESTING_FEATURE_DATA_TEST_UTIL_H_
#define CDPIPE_TESTS_TESTING_FEATURE_DATA_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/dataframe/chunk.h"
#include "src/io/serialization.h"
#include "src/ml/batch_view.h"

namespace cdpipe {
namespace testing {

/// Seeded sparse chunk of nominal dim `dim` with `rows` rows of `nnz` draws
/// each (duplicate indices merge); every `empty_every`-th row has no
/// entries.  Labels in {-1, +1}.
inline FeatureData RandomSparseChunk(uint32_t dim, size_t rows, size_t nnz,
                                     uint64_t seed, size_t empty_every = 0) {
  Rng rng(seed);
  FeatureData chunk;
  chunk.dim = dim;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::pair<uint32_t, double>> entries;
    if (empty_every == 0 || (r + 1) % empty_every != 0) {
      for (size_t k = 0; k < nnz; ++k) {
        entries.push_back(
            {static_cast<uint32_t>(rng.NextUint64() % dim), rng.NextGaussian()});
      }
    }
    chunk.features.push_back(SparseVector::FromUnsorted(dim, std::move(entries)));
    chunk.labels.push_back(rng.NextUint64() % 2 == 0 ? 1.0 : -1.0);
  }
  return chunk;
}

/// `data` as text with every double a hexfloat: two FeatureData are
/// bit-identical iff their texts are equal, and a failing comparison
/// prints both.
inline std::string HexFloatText(const FeatureData& data) {
  std::ostringstream text;
  Serializer out(&text);
  out.WriteInt("dim", static_cast<int64_t>(data.dim));
  out.WriteDoubleVector("labels", data.labels);
  for (const SparseVector& x : data.features) {
    out.WriteUint32Vector("indices", x.indices());
    out.WriteDoubleVector("values", x.values());
  }
  return text.str();
}

/// Whether `actual` is bit-identical to `expected`: the same dim and
/// labels, and per row the same indices and values.  Doubles compare as
/// bytes, so NaN payloads and signed zeros count, which == does not see.
/// A failure names `context` and the first row that differs.
inline ::testing::AssertionResult FeatureDataBitEqual(
    const FeatureData& expected, const FeatureData& actual,
    const std::string& context = "") {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  if (expected.dim != actual.dim ||
      expected.num_rows() != actual.num_rows()) {
    return ::testing::AssertionFailure()
           << context << ": dim " << expected.dim << " vs " << actual.dim
           << ", rows " << expected.num_rows() << " vs " << actual.num_rows();
  }
  if (!same_bits(expected.labels, actual.labels)) {
    return ::testing::AssertionFailure() << context << ": labels differ";
  }
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    if (expected.features[r].indices() != actual.features[r].indices() ||
        !same_bits(expected.features[r].values(),
                   actual.features[r].values())) {
      return ::testing::AssertionFailure() << context << " row " << r;
    }
  }
  return ::testing::AssertionSuccess();
}

/// References to every row of `data`, in order: the backing array of a
/// BatchView over it (keep it alive as long as the view).
inline std::vector<BatchView::RowRef> RowsOf(const FeatureData& data) {
  Result<std::vector<BatchView::RowRef>> rows =
      BatchView::CollectRows({&data}, nullptr);
  CDPIPE_CHECK(rows.ok()) << rows.status().ToString();
  return std::move(rows).value();
}

/// Merges feature chunks (possibly with different nominal dims, e.g. when a
/// one-hot dictionary grew between materializations) into one training
/// batch whose dim is the maximum of the inputs.
///
/// Tests-only: production training consumes sampled chunks zero-copy
/// through BatchView; this copying merge survives as the reference
/// implementation the equivalence tests compare that path against.
inline FeatureData MergeFeatureData(
    const std::vector<const FeatureData*>& parts) {
  FeatureData out;
  size_t total_rows = 0;
  for (const FeatureData* part : parts) {
    CDPIPE_CHECK(part != nullptr);
    out.dim = std::max(out.dim, part->dim);
    total_rows += part->num_rows();
  }
  out.features.reserve(total_rows);
  out.labels.reserve(total_rows);
  for (const FeatureData* part : parts) {
    for (size_t r = 0; r < part->num_rows(); ++r) {
      const SparseVector& x = part->features[r];
      if (x.dim() == out.dim) {
        out.features.push_back(x);
      } else {
        // Widen the nominal dimension; indices are untouched.
        out.features.push_back(
            std::move(SparseVector::FromSorted(out.dim, x.indices(),
                                               x.values()))
                .ValueOrDie());
      }
      out.labels.push_back(part->labels[r]);
    }
  }
  return out;
}

}  // namespace testing
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_TESTING_FEATURE_DATA_TEST_UTIL_H_
