#ifndef CDPIPE_TESTS_SPEC_PIPELINE_SPEC_H_
#define CDPIPE_TESTS_SPEC_PIPELINE_SPEC_H_

// Row-at-a-time reference implementation ("spec") of every pipeline
// component, for tests only.  Each spec stage is the shortest obviously
// correct statement of its component's contract: records flow one at a
// time as name -> Value maps (or sparse rows once vectorized), statistics
// live in plain maps, and there are no memos, shards, blocks or keep masks.
// The block kernels in src/pipeline are checked against it: hexfloat-exact
// on the committed goldens, and differentially on randomized chunks.
//
// Arithmetic follows the component contracts expression for expression
// (sums in row order, σ from (Σx², Σx, n), IEEE operations in the same
// order), because bit-identity is the contract under test.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/dataframe/value.h"
#include "src/pipeline/pipeline.h"

namespace cdpipe {
namespace spec {

/// One record between stages: table cells by column name until a
/// vectorizing stage runs, then a sparse row (ascending indices) + label.
struct Record {
  std::map<std::string, Value> cells;
  std::vector<std::pair<uint32_t, double>> entries;
  double label = 0.0;
};

struct Batch {
  bool vectorized = false;
  uint32_t dim = 0;
  std::vector<Record> rows;
};

/// The reference for one component.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual bool stateful() const { return false; }
  /// A stage with the same configuration and no statistics (stateful
  /// stages only).
  virtual std::unique_ptr<Stage> Fresh() const { return nullptr; }
  /// Folds `batch` into the statistics (stateful stages only).
  virtual Status Update(const Batch& batch) {
    (void)batch;
    return Status::OK();
  }
  /// Transforms `batch` record by record with the current statistics.
  virtual Status Transform(Batch* batch) = 0;

  /// Records dropped as malformed (parser) or anomalous (filters).
  size_t dropped = 0;
};

/// Reference pipeline mirroring a production Pipeline's configuration,
/// starting from empty statistics.
class SpecPipeline {
 public:
  /// Fails with Unimplemented for a component type the spec does not know.
  static Result<SpecPipeline> Of(const Pipeline& pipeline);

  /// Online path: per stage, update (stateful) then transform.
  Result<FeatureData> UpdateAndTransform(const RawChunk& chunk,
                                         size_t* rows_scanned = nullptr);
  /// Pure path: transform only.
  Result<FeatureData> Transform(const RawChunk& chunk,
                                size_t* rows_scanned = nullptr);
  /// NoOptimization path: stateful stages run as fresh copies that see
  /// only this chunk; the statistics here stay untouched.
  Result<FeatureData> TransformRecomputingStatistics(
      const RawChunk& chunk, size_t* rows_scanned = nullptr);

  size_t num_stages() const { return stages_.size(); }
  const Stage& stage(size_t i) const { return *stages_[i]; }

 private:
  enum class Mode { kOnline, kPure, kRecompute };

  Result<FeatureData> Run(const RawChunk& chunk, Mode mode,
                          size_t* rows_scanned);

  std::vector<std::unique_ptr<Stage>> stages_;
};

/// The production counter mirroring Stage::dropped: the parser's malformed
/// count, a filter's dropped count, 0 for components without one.
size_t CounterOf(const PipelineComponent& component);

}  // namespace spec
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_SPEC_PIPELINE_SPEC_H_
