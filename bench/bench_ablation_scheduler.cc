// Ablation (DESIGN.md): static vs dynamic scheduling of proactive training
// (paper §4.1, formula 6).  We simulate prediction-load profiles and show
// how the dynamic scheduler's chosen interval T' = S·T·pr·pl adapts while
// the static scheduler stays fixed, then run both over a real deployment
// stream (event-time driven).
//
// Flags: --scale=0.5  --seed=42

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/scheduler/scheduler.h"

namespace cdpipe {
namespace bench {
namespace {

/// Wraps a DynamicScheduler but pins the prediction-load estimate to a
/// fixed synthetic profile, ignoring the platform's measured load (our
/// substrate answers queries in microseconds, so measured pr*pl would
/// collapse every slack setting to "train every chunk").
class FixedLoadDynamicScheduler final : public Scheduler {
 public:
  FixedLoadDynamicScheduler(DynamicScheduler::Options options, double qps,
                            double latency)
      : inner_(options) {
    inner_.OnPredictionLoad(qps, latency);
  }

  std::string name() const override { return inner_.name() + "+fixed-load"; }
  bool ShouldTrain(double now_seconds) override {
    return inner_.ShouldTrain(now_seconds);
  }
  void OnTrainingCompleted(double start_seconds,
                           double duration_seconds) override {
    inner_.OnTrainingCompleted(start_seconds, duration_seconds);
  }
  void OnPredictionLoad(double, double) override {}  // pinned

 private:
  DynamicScheduler inner_;
};

void SimulateFormula() {
  std::printf("\n-- Formula 6: chosen delay under varying load --\n");
  std::printf("  %-28s %12s %12s %12s\n", "load (pr qps, pl s/item)",
              "S=1.0", "S=1.5", "S=2.5");
  const double training_seconds = 0.5;
  struct Load {
    const char* label;
    double pr;
    double pl;
  };
  const Load loads[] = {
      {"idle       (10 qps, 1ms)", 10.0, 0.001},
      {"moderate  (200 qps, 2ms)", 200.0, 0.002},
      {"busy     (1000 qps, 3ms)", 1000.0, 0.003},
      {"surge    (5000 qps, 5ms)", 5000.0, 0.005},
  };
  for (const Load& load : loads) {
    std::printf("  %-28s", load.label);
    for (double slack : {1.0, 1.5, 2.5}) {
      DynamicScheduler scheduler(DynamicScheduler::Options{.slack = slack});
      scheduler.OnPredictionLoad(load.pr, load.pl);
      std::printf(" %11.3fs", scheduler.ComputeDelaySeconds(training_seconds));
    }
    std::printf("\n");
  }
}

void RunEventTimeComparison(const Scenario& scenario) {
  std::printf("\n-- Event-time scheduling over the %s stream --\n",
              scenario.name().c_str());
  // Static: every 5 chunk-periods; Dynamic: driven by measured training
  // durations and a synthetic load model fed by the chunk cadence.
  struct Config {
    const char* label;
    std::unique_ptr<Scheduler> scheduler;
  };
  const double period =
      scenario.name() == "URL" ? 60.0 : 3600.0;  // chunk cadence in seconds

  auto run_with = [&](const char* label,
                      std::unique_ptr<Scheduler> scheduler) {
    Deployment::Options options;
    options.seed = scenario.seed();
    options.eval_window = 2000;
    ContinuousDeployment::ContinuousOptions continuous;
    continuous.sample_chunks = scenario.proactive_sample_chunks();
    continuous.scheduler = std::move(scheduler);
    ContinuousDeployment deployment(
        std::move(options), std::move(continuous), scenario.MakePipeline(),
        scenario.MakeModel(), MakeOptimizer(scenario.DefaultOptimizer()),
        scenario.MakeMetric());
    Status init = deployment.InitialTrain(scenario.GenerateBootstrap(),
                                          scenario.InitialTrainOptions());
    if (!init.ok()) {
      std::fprintf(stderr, "init failed: %s\n", init.ToString().c_str());
      std::exit(1);
    }
    auto result = deployment.Run(scenario.GenerateStream());
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    DeploymentReport report = std::move(result).ValueOrDie();
    PrintSummaryRow(label, report);
    std::printf("      proactive iterations: %lld\n",
                static_cast<long long>(report.proactive_iterations()));
  };

  for (double interval_chunks : {2.0, 5.0, 10.0}) {
    char label[64];
    std::snprintf(label, sizeof(label), "static every %.0f chunks",
                  interval_chunks);
    run_with(label,
             std::make_unique<StaticScheduler>(period * interval_chunks));
  }
  // Dynamic scheduling (formula 6) driven by the event-time stream.  A
  // proactive step here takes ~2-4 ms of wall time (the paper's took 200 ms
  // on Spark), so we feed a synthetic heavy load profile (pr*pl = 45000)
  // to bring S*T*pr*pl into the 60s-per-chunk event-time regime: larger
  // slack visibly spaces the trainings out.
  for (double slack : {1.0, 2.0, 4.0}) {
    DynamicScheduler::Options dynamic;
    dynamic.slack = slack;
    dynamic.initial_interval_seconds = period;
    dynamic.min_interval_seconds = 1.0;
    auto scheduler = std::make_unique<FixedLoadDynamicScheduler>(
        dynamic, /*qps=*/4500.0, /*latency=*/10.0);
    char label[64];
    std::snprintf(label, sizeof(label), "dynamic S=%.1f (surge load)",
                  slack);
    run_with(label, std::move(scheduler));
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

  std::printf("bench_ablation_scheduler: static vs dynamic scheduling\n");
  SimulateFormula();
  RunEventTimeComparison(UrlScenario(scale, seed));
  return 0;
}
