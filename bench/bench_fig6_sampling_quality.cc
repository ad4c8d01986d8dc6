// Figure 6 of the paper: effect of the sampling strategy (uniform /
// window-based / time-based) on the quality of the continuously deployed
// model.
//
// Expected shape (§5.3): on URL — whose distribution drifts — time-based
// sampling wins, window-based second, uniform last.  On Taxi — stationary —
// all three strategies land on the same error.
//
// Flags: --scenario=url|taxi|both  --scale=1.0  --seed=42

#include <cstdio>

#include "bench/bench_common.h"

namespace cdpipe {
namespace bench {
namespace {

void RunScenario(const Scenario& scenario) {
  std::printf("\n=== Figure 6 — %s (%s by sampling strategy) ===\n",
              scenario.name().c_str(), scenario.metric_label().c_str());

  const SamplerKind kinds[] = {SamplerKind::kTime, SamplerKind::kWindow,
                               SamplerKind::kUniform};
  DeploymentReport reports[3];
  for (int i = 0; i < 3; ++i) {
    RunOverrides overrides;
    overrides.sampler = kinds[i];
    reports[i] = RunDeployment(scenario, StrategyKind::kContinuous, overrides);
  }

  std::printf("\nQuality over time:\n");
  for (int i = 0; i < 3; ++i) {
    std::printf(" %s sampling\n", SamplerKindName(kinds[i]));
    PrintCurve(reports[i], 8);
  }

  std::printf("\nSummary:\n");
  for (int i = 0; i < 3; ++i) {
    PrintSummaryRow(SamplerKindName(kinds[i]), reports[i]);
  }
  std::printf(
      "  time-based improvement over window-based: %+.5f\n"
      "  time-based improvement over uniform:      %+.5f\n",
      reports[1].average_error() - reports[0].average_error(),
      reports[2].average_error() - reports[0].average_error());
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) {
  using namespace cdpipe::bench;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string which = flags.GetString("scenario", "both");

  std::printf("bench_fig6_sampling_quality: sampling strategy vs quality\n");
  if (which == "url" || which == "both") {
    RunScenario(UrlScenario(scale, seed));
  }
  if (which == "taxi" || which == "both") {
    RunScenario(TaxiScenario(scale, seed));
  }
  return 0;
}
