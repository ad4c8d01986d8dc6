// §5.5 of the paper: the average proactive-training step is fast enough
// (200 ms URL / 700 ms Taxi on the paper's hardware) that the platform
// never pauses online updates or query answering.  This bench measures the
// per-iteration latency distribution of proactive training on both
// scenarios and compares it against a full retraining.
//
// Flags: --scenario=url|taxi|both  --scale=0.5  --seed=42

#include <cstdio>

#include "bench/bench_common.h"

namespace cdpipe {
namespace bench {
namespace {

void RunScenario(const Scenario& scenario) {
  std::printf("\n=== Proactive step latency — %s ===\n",
              scenario.name().c_str());

  DeploymentReport continuous =
      RunDeployment(scenario, StrategyKind::kContinuous);
  DeploymentReport periodical =
      RunDeployment(scenario, StrategyKind::kPeriodical);

  const double avg_proactive = continuous.average_proactive_seconds();
  const double avg_retrain =
      periodical.retrainings > 0
          ? (periodical.cost.SecondsIn(CostPhase::kRetraining) +
             periodical.cost.SecondsIn(CostPhase::kMaterialization)) /
                static_cast<double>(periodical.retrainings)
          : 0.0;
  std::printf("  proactive iterations: %lld, avg latency: %.4fs\n",
              static_cast<long long>(continuous.proactive_iterations()),
              avg_proactive);
  std::printf("  full retrainings:     %lld, avg latency: %.4fs\n",
              static_cast<long long>(periodical.retrainings), avg_retrain);
  if (avg_proactive > 0.0) {
    std::printf("  -> one retraining costs %.0fx one proactive step\n",
                avg_retrain / avg_proactive);
  }
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) {
  using namespace cdpipe::bench;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string which = flags.GetString("scenario", "both");

  std::printf("bench_proactive_latency: proactive step vs full retraining\n");
  if (which == "url" || which == "both") {
    RunScenario(UrlScenario(scale, seed));
  }
  if (which == "taxi" || which == "both") {
    RunScenario(TaxiScenario(scale, seed));
  }
  return 0;
}
