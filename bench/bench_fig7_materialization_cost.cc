// Figure 7 of the paper: effect of online statistics computation and
// dynamic materialization on the total deployment cost.  Continuous
// deployment runs at materialization rates m/n ∈ {0.0, 0.2, 0.6, 1.0} for
// the three sampling strategies, plus the NoOptimization baseline (online
// statistics computation disabled, nothing materialized).
//
// Expected shape (§5.4): cost falls monotonically with the materialization
// rate; at 0.2 time-based sampling is cheapest (highest μ), at 0.6
// window-based reaches μ=1 and wins; NoOptimization is the most expensive
// configuration of all.
//
// Flags: --scenario=url|taxi|both  --scale=0.5  --seed=42

#include <cstdio>

#include "bench/bench_common.h"

namespace cdpipe {
namespace bench {
namespace {

void RunScenario(const Scenario& scenario) {
  std::printf("\n=== Figure 7 — %s (total cost by materialization rate) ===\n",
              scenario.name().c_str());
  const size_t total_chunks =
      scenario.bootstrap_chunks() + scenario.stream_chunks();

  const SamplerKind kinds[] = {SamplerKind::kUniform, SamplerKind::kWindow,
                               SamplerKind::kTime};
  const double rates[] = {0.0, 0.2, 0.6, 1.0};

  std::printf("  %-14s", "m/n");
  for (double rate : rates) std::printf(" %11.1f", rate);
  std::printf("   [seconds | million work units]\n");

  double cost_at_full = 0.0;
  for (SamplerKind kind : kinds) {
    std::printf("  %-14s", SamplerKindName(kind));
    for (double rate : rates) {
      RunOverrides overrides;
      overrides.sampler = kind;
      overrides.max_materialized_chunks =
          rate >= 1.0 ? SIZE_MAX : static_cast<size_t>(total_chunks * rate);
      DeploymentReport report =
          RunDeployment(scenario, StrategyKind::kContinuous, overrides);
      std::printf(" %5.2fs|%4.2fM", report.total_seconds(),
                  static_cast<double>(report.total_work) / 1e6);
      if (rate >= 1.0) cost_at_full = static_cast<double>(report.total_work);
    }
    std::printf("\n");
  }

  // NoOptimization: statistics recomputed on every use, nothing cached.
  RunOverrides no_opt;
  no_opt.sampler = SamplerKind::kTime;
  no_opt.max_materialized_chunks = 0;
  no_opt.online_statistics = false;
  DeploymentReport report =
      RunDeployment(scenario, StrategyKind::kContinuous, no_opt);
  std::printf("  %-14s %5.2fs|%4.2fM  (time-based sampling)\n",
              "NoOptimization", report.total_seconds(),
              static_cast<double>(report.total_work) / 1e6);
  if (cost_at_full > 0.0) {
    std::printf(
        "  NoOptimization vs fully-optimized (m/n=1.0): %.0f%% more work\n",
        (static_cast<double>(report.total_work) / cost_at_full - 1.0) *
            100.0);
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

  std::printf(
      "bench_fig7_materialization_cost: optimization effects on deployment "
      "cost\n");
  if (which == "url" || which == "both") {
    RunScenario(UrlScenario(scale, seed));
  }
  if (which == "taxi" || which == "both") {
    RunScenario(TaxiScenario(scale, seed));
  }
  return 0;
}
