#ifndef CDPIPE_TESTS_SCENARIOS_SCENARIO_RUNNER_H_
#define CDPIPE_TESTS_SCENARIOS_SCENARIO_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/retry.h"
#include "src/core/admission.h"
#include "src/core/deployment.h"
#include "src/core/report.h"
#include "src/data/traffic_shape.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace testing {

/// The deployment a scenario builds.  All three train through the one
/// training path (DataManager::Resolve → ProactiveTrainer), so the fault
/// table applies to each.
enum class ScenarioStrategy {
  /// Continuous: a proactive SGD step every `proactive_every_chunks`.
  kContinuous,
  /// Continuous plus a Page-Hinkley detector (δ = 0, λ = 0.05, burn-in 3)
  /// that fires on the scenario stream; each drift runs a burst of
  /// window-sampled SGD steps.
  kDrift,
  /// Periodical: a full-batch retrain over the whole live history every
  /// `retrain_every_chunks`.  The last retrain of the default 24-chunk run
  /// covers 576 rows, two gradient shards.
  kPeriodical,
};

const char* ScenarioStrategyName(ScenarioStrategy strategy);

/// One end-to-end deployment run under a seeded fault script.  Every knob
/// is deterministic: the stream generator, the deployment seed, and every
/// fault rule draw from fixed seeds, so a scenario is a reproducible
/// experiment, not a flake generator.
struct Scenario {
  std::string name;
  /// Fault script armed for the whole run (stream generation included).
  /// Empty + `arm_injector` = the "armed but inert" control.
  std::vector<ScopedFaultScript::SiteRule> faults;
  /// When false the injector stays fully disabled — the uninstrumented
  /// baseline the control is compared against.
  bool arm_injector = true;

  ScenarioStrategy strategy = ScenarioStrategy::kContinuous;
  size_t num_chunks = 24;
  size_t engine_threads = 1;
  ChunkStore::Options store;
  RetryPolicy retry;
  uint64_t seed = 3;
  size_t proactive_every_chunks = 3;
  size_t sample_chunks = 5;
  size_t retrain_every_chunks = 6;  ///< periodical only

  /// Serving tier: when true a SnapshotPublisher + started PredictionService
  /// are attached for the whole run; with `serve_evaluation` the prequential
  /// evaluate step routes through the service (serve-then-train).
  bool attach_serving = false;
  bool serve_evaluation = false;
  int serving_threads = 2;

  /// Traffic shaping: when `shaped` is set, the stream's arrival times are
  /// rewritten by `traffic` and the replay goes through
  /// Deployment::RunShaped behind an AdmissionController built from
  /// `admission`.  Everything stays deterministic: shapes and admission
  /// decisions are pure functions of (configs, chunk index).
  bool shaped = false;
  TrafficShapeConfig traffic;
  AdmissionController::Options admission;
  /// Deployment::Options::publish_staleness_bound_chunks for the run.
  size_t publish_staleness_bound_chunks = 4;
};

struct ScenarioResult {
  Status status = Status::OK();
  DeploymentReport report;
  /// Serialized checkpoint of the final deployed state (pipeline
  /// statistics + model weights + optimizer state, hexfloat-exact).  Two
  /// runs are bit-identical iff their fingerprints are equal.
  std::string fingerprint;

  bool ok() const { return status.ok(); }
};

/// Builds the scenario's URL-stream deployment, arms the scenario's fault
/// script, replays `num_chunks` chunks, and captures the report plus the
/// final-state fingerprint.  The script is disarmed before returning,
/// whatever happens.
ScenarioResult RunScenario(const Scenario& scenario);

/// The canonical scenario stream (URL generator, fixed seeds) — exposed so
/// serving scenarios can replay the exact same chunks on a background
/// deployment thread while hammering the prediction front-end.
std::vector<RawChunk> MakeScenarioStream(size_t num_chunks);

/// The scenario's deployment, unarmed and not yet run.
std::unique_ptr<Deployment> MakeScenarioDeployment(const Scenario& scenario);

}  // namespace testing
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_SCENARIOS_SCENARIO_RUNNER_H_
