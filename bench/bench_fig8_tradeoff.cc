// Figure 8 of the paper: the quality/cost trade-off — average prequential
// error vs total deployment cost for the three strategies on both
// scenarios, i.e. the scatter plot the paper closes its evaluation with.
//
// Expected shape (§5.5): continuous sits at (periodical-level quality,
// online-level cost) — the paper reports 6–15× lower cost than periodical
// at equal or slightly better quality.
//
// Flags: --scenario=url|taxi|both  --scale=1.0  --seed=42

#include <cstdio>

#include "bench/bench_common.h"

namespace cdpipe {
namespace bench {
namespace {

void RunScenario(const Scenario& scenario) {
  std::printf("\n=== Figure 8 — %s (avg %s vs cost) ===\n",
              scenario.name().c_str(), scenario.metric_label().c_str());
  std::printf("  %-12s %14s %12s %16s\n", "strategy", "avg_error",
              "cost(s)", "work(units)");
  DeploymentReport reports[3];
  const StrategyKind kinds[] = {StrategyKind::kOnline,
                                StrategyKind::kPeriodical,
                                StrategyKind::kContinuous};
  for (int i = 0; i < 3; ++i) {
    reports[i] = RunDeployment(scenario, kinds[i]);
    std::printf("  %-12s %14.5f %12.2f %16lld\n", StrategyName(kinds[i]),
                reports[i].average_error(), reports[i].total_seconds(),
                static_cast<long long>(reports[i].total_work));
  }
  std::printf(
      "  -> continuous achieves %.5f avg error at %.1f%% of periodical's "
      "work (quality delta vs periodical: %+.5f)\n",
      reports[2].average_error(),
      100.0 * static_cast<double>(reports[2].total_work) /
          static_cast<double>(reports[1].total_work),
      reports[1].average_error() - reports[2].average_error());
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

  std::printf("bench_fig8_tradeoff: quality vs deployment cost\n");
  if (which == "url" || which == "both") {
    RunScenario(UrlScenario(scale, seed));
  }
  if (which == "taxi" || which == "both") {
    RunScenario(TaxiScenario(scale, seed));
  }
  return 0;
}
