// Figure 4 of the paper: model quality (cumulative prequential error, 4a/4c)
// and cumulative training cost (4b/4d) over the deployment stream for the
// online, periodical, and continuous deployment approaches, on the URL and
// Taxi scenarios.
//
// Expected shape (paper §5.2): continuous ≈ periodical quality, both better
// than online; periodical cost ≫ continuous cost ≳ online cost (the paper
// measures 15× for URL, 6× for Taxi between periodical and continuous).
//
// Flags: --scenario=url|taxi|both  --scale=1.0  --seed=42  --describe
//        --json_out=PATH   (writes summary + per-run metrics snapshot JSON;
//                           with --scenario=both the scenario name is
//                           appended before the extension)

#include <cstdio>
#include <string>

#include "bench/bench_common.h"

namespace cdpipe {
namespace bench {
namespace {

void Describe(const Scenario& scenario) {
  std::printf(
      "Table 2 analog — scenario %s: bootstrap=%zu chunks, deployment=%zu "
      "chunks, proactive every %zu chunks (sample %zu chunks), retraining "
      "every %zu chunks\n",
      scenario.name().c_str(), scenario.bootstrap_chunks(),
      scenario.stream_chunks(), scenario.proactive_every_chunks(),
      scenario.proactive_sample_chunks(), scenario.retrain_every_chunks());
}

void RunScenario(const Scenario& scenario, const std::string& json_out) {
  std::printf("\n=== Figure 4 — %s (%s) ===\n", scenario.name().c_str(),
              scenario.metric_label().c_str());
  Describe(scenario);

  DeploymentReport online = RunDeployment(scenario, StrategyKind::kOnline);
  DeploymentReport periodical =
      RunDeployment(scenario, StrategyKind::kPeriodical);
  DeploymentReport continuous =
      RunDeployment(scenario, StrategyKind::kContinuous);

  std::printf("\nQuality over time (Fig 4%s):\n",
              scenario.name() == "URL" ? "a" : "c");
  for (const auto* report : {&online, &periodical, &continuous}) {
    std::printf(" %s\n", report->strategy.c_str());
    PrintCurve(*report, 10);
  }

  std::printf("\nCumulative cost over time (Fig 4%s)  [seconds | work units]:\n",
              scenario.name() == "URL" ? "b" : "d");
  std::printf("  %10s %16s %16s %16s\n", "chunk", "online", "periodical",
              "continuous");
  const auto o = online.SampledCurve(10);
  const auto p = periodical.SampledCurve(10);
  const auto c = continuous.SampledCurve(10);
  for (size_t i = 0; i < o.size(); ++i) {
    std::printf("  %10lld %7.2fs|%7lld %7.2fs|%7lld %7.2fs|%7lld\n",
                static_cast<long long>(o[i].chunk_index),
                o[i].cumulative_seconds,
                static_cast<long long>(o[i].cumulative_work),
                p[i].cumulative_seconds,
                static_cast<long long>(p[i].cumulative_work),
                c[i].cumulative_seconds,
                static_cast<long long>(c[i].cumulative_work));
  }

  std::printf("\nSummary:\n");
  PrintSummaryRow("online", online);
  PrintSummaryRow("periodical", periodical);
  PrintSummaryRow("continuous", continuous);
  std::printf(
      "  cost ratio periodical/continuous: %.2fx (work), %.2fx (seconds)\n",
      static_cast<double>(periodical.total_work) /
          static_cast<double>(continuous.total_work),
      periodical.total_seconds() / continuous.total_seconds());
  std::printf(
      "  quality delta continuous vs online:     %+.5f\n"
      "  quality delta continuous vs periodical: %+.5f\n",
      online.final_error - continuous.final_error,
      periodical.final_error - continuous.final_error);

  if (!json_out.empty()) {
    WriteReportsJson(json_out, {{"online", &online},
                                {"periodical", &periodical},
                                {"continuous", &continuous}});
  }
}

std::string ScenarioJsonPath(const std::string& base,
                             const std::string& scenario, bool both) {
  if (base.empty() || !both) return base;
  const size_t dot = base.rfind('.');
  const std::string suffix = "_" + scenario;
  if (dot == std::string::npos) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
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
  const std::string json_out = flags.GetString("json_out", "");
  const bool both = which == "both";

  std::printf("bench_fig4_deployment: deployment approaches comparison\n");
  if (which == "url" || both) {
    RunScenario(UrlScenario(scale, seed),
                ScenarioJsonPath(json_out, "url", both));
  }
  if (which == "taxi" || both) {
    RunScenario(TaxiScenario(scale, seed),
                ScenarioJsonPath(json_out, "taxi", both));
  }
  return 0;
}
