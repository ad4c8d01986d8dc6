#ifndef CDPIPE_PIPELINE_COMPONENT_H_
#define CDPIPE_PIPELINE_COMPONENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/serialization.h"

namespace cdpipe {

namespace fusion {
class PlanBuilder;
}  // namespace fusion

/// Component classes from Table 1 of the paper.  The class determines the
/// unit of work and the size complexity of the output (all our components
/// are O(p) in the input size; one-hot encoding stays O(p) because it emits
/// sparse vectors, see §3.2.1).
enum class ComponentKind {
  kDataTransformation,  ///< per-row filtering or mapping
  kFeatureSelection,    ///< per-column selection
  kFeatureExtraction,   ///< per-column generation of new columns
};

const char* ComponentKindName(ComponentKind kind);

/// A stage of a deployed machine learning pipeline.
///
/// Per §4.3 of the paper, every component implements two operations, both
/// as block kernels it contributes to the pipeline's compiled plan
/// (src/pipeline/fusion/fusion.h):
///
///  - an *update kernel* (stateful components only): incrementally folds
///    the component's input block into its statistics (the *online
///    statistics computation* optimization).  Runs once per arriving
///    training chunk, on the online path, before the transform kernel.
///    Never runs during re-materialization or inference.
///  - a *transform kernel*: applies the component using the current
///    statistics, read when the block starts.  Never mutates statistics,
///    so the same features are produced for training data and prediction
///    queries (train/serve consistency) and evicted feature chunks can be
///    re-materialized at any later time.
///
/// Components whose statistics cannot be maintained incrementally (exact
/// percentiles, PCA, ...) are outside the platform's contract (§3.1); the
/// `supports_online_statistics` flag exists so such a component can be
/// rejected at pipeline construction time.
class PipelineComponent {
 public:
  virtual ~PipelineComponent() = default;

  virtual std::string name() const = 0;
  virtual ComponentKind kind() const = 0;

  /// True when the component maintains statistics (is stateful).
  virtual bool is_stateful() const { return false; }

  /// True when the statistics can be folded in incrementally.  Stateless
  /// components trivially support this.  The Pipeline refuses stateful
  /// components that return false here.
  virtual bool supports_online_statistics() const { return true; }

  /// Contributes this component's kernels to a plan under construction:
  /// resolves columns against the plan's schema and appends an update
  /// kernel (stateful components) followed by a transform kernel.  The
  /// plan keeps a pointer to the component; only the update kernel writes
  /// through it.  A configuration the kernels cannot run (unknown or
  /// non-numeric column, wrong input representation) is a pipeline error:
  /// return it, and the transform fails with it.
  virtual Status Fuse(fusion::PlanBuilder* plan) = 0;

  /// Discards all statistics, returning the component to its initial state.
  virtual void Reset() {}

  /// Deep copy, including statistics.  Used for warm starting and for the
  /// NoOptimization baseline (which recomputes statistics on throwaway
  /// clones).
  virtual std::unique_ptr<PipelineComponent> Clone() const = 0;

  /// One-line human-readable summary of the statistics (for reports).
  virtual std::string DescribeState() const { return "(stateless)"; }

  /// Checkpointing: persists / restores the component's statistics.
  /// Stateless components have nothing to save.  Configuration is NOT
  /// saved — the loader must reconstruct the same pipeline structure first.
  virtual Status SaveState(Serializer* out) const {
    (void)out;
    return Status::OK();
  }
  virtual Status LoadState(Deserializer* in) {
    (void)in;
    return Status::OK();
  }
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_COMPONENT_H_
