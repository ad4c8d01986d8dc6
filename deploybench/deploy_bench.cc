// Deployment benchmark: replays one workload's seeded URL or Taxi stream
// through the real Deployment::Run (untraced) and, with --trace=1, also
// through the span-recording TracedDeployment, then checks the outputs and
// prints one JSON result object as the last line of stdout.
//
//   deploy_bench --workload=<name> [--seed=42] [--seconds=10] [--trace=0|1]
//       [--span_out=path] [--spill_root=.bench_build/deploybench/spill]
//
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones;
// see README.md for the metric definitions.  Exit code 0 iff every check
// passed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "deploybench/calibration.h"
#include "deploybench/open_loop_client.h"
#include "deploybench/span_recorder.h"
#include "deploybench/stats.h"
#include "deploybench/traced_driver.h"
#include "deploybench/workloads.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"

namespace cdpipe {
namespace deploybench {
namespace {

namespace fs = std::filesystem;

/// A run cycles through this many streams, each generated from its own
/// seed derived from --seed.  Exact outputs (work, error) are aggregated
/// over them, which narrows their spread across --seed values; it is also
/// the least number of repetitions a run makes.
constexpr size_t kStreamsPerRun = 3;
/// The attribution-closure bar: step time outside every layer span.
constexpr double kMaxUnattributedFrac = 0.05;

/// Publisher + one-worker prediction service for serving workloads.
struct ServingTier {
  explicit ServingTier(uint32_t deployment_id)
      : service(&publisher, ServiceOptions(deployment_id)) {}

  static serving::PredictionService::Options ServiceOptions(uint32_t id) {
    serving::PredictionService::Options options;
    options.num_threads = 1;
    options.deployment_id = id;
    return options;
  }

  serving::SnapshotPublisher publisher;
  serving::PredictionService service;
};

/// What both kinds of repetition report: the quantities the traced and
/// untraced replays must agree on bit for bit, plus timings.
struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Mean CalibrationSeconds() just before and just after the repetition
  /// (end-to-end runs only).
  double calibration_s = 0.0;
  int64_t stream_rows = 0;
  int64_t chunks = 0;
  double final_error = 0.0;
  int64_t total_work = 0;
  double mu = 0.0;
  int64_t degraded = 0;
  int64_t retrainings = 0;
  ChunkStore::Counters storage;
  ClientStats client;
  // Traced repetitions only.
  TracedDeployment::Counts counts;
  std::map<std::string, SpanRecorder::Totals> spans;
};

/// Owns the spill directory of this process and removes it on exit.
class SpillDir {
 public:
  explicit SpillDir(const std::string& root)
      : path_((fs::path(root) / std::to_string(::getpid())).string()) {
    fs::create_directories(path_);
  }
  ~SpillDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "deploy_bench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::fflush(stdout);
  std::_Exit(1);  // threads may still run: skip static destructors
}

/// Setup (deployment, initial training, service start) shared by both
/// repetition kinds; `Driver` is Deployment or TracedDeployment.
template <typename Driver>
struct Prepared {
  explicit Prepared(const Inputs& in) : inputs(in) {}
  const Inputs& inputs;
  DeploymentConfig config;
  std::unique_ptr<ServingTier> tier;  // declared first: outlives the driver
  std::unique_ptr<Driver> driver;
};

/// Replays the stream with the client (if any) sending meanwhile.
template <typename Driver, typename RunFn>
void ReplayWithClient(Prepared<Driver>* prepared, RepResult* rep,
                      RunFn&& run) {
  std::unique_ptr<OpenLoopClient> client;
  if (prepared->tier != nullptr) {
    client = std::make_unique<OpenLoopClient>(
        &prepared->tier->publisher, &prepared->tier->service,
        &prepared->inputs.queries, kClientRequestsPerSecond);
    client->Start();
  }
  Stopwatch watch;
  run();
  rep->run_s = watch.ElapsedSeconds();
  if (client != nullptr) rep->client = client->Stop();
  if (prepared->tier != nullptr) prepared->tier->service.Stop();
  rep->stream_rows = prepared->inputs.stream_rows;
  rep->chunks = static_cast<int64_t>(prepared->inputs.stream.size());
}

RepResult RunUntraced(const Workload& workload, const Inputs& inputs,
                      const std::string& spill_dir) {
  RepResult rep;
  Prepared<Deployment> prepared(inputs);
  Stopwatch setup;
  prepared.config = MakeConfig(workload, prepared.inputs, spill_dir);
  prepared.driver =
      MakeDeployment(prepared.config, *prepared.inputs.scenario);
  if (workload.serving) {
    prepared.tier =
        std::make_unique<ServingTier>(prepared.driver->deployment_id());
    prepared.driver->AttachServing(&prepared.tier->publisher,
                                   &prepared.tier->service,
                                   /*serve_evaluation=*/true);
  }
  const Status init = prepared.driver->InitialTrain(
      prepared.inputs.bootstrap, prepared.config.initial_train);
  if (!init.ok()) Fail("InitialTrain", init);
  if (prepared.tier != nullptr) {
    const Status started = prepared.tier->service.Start();
    if (!started.ok()) Fail("PredictionService::Start", started);
  }
  rep.setup_s = setup.ElapsedSeconds();

  std::optional<Result<DeploymentReport>> result;
  ReplayWithClient(&prepared, &rep, [&] {
    result.emplace(prepared.driver->Run(prepared.inputs.stream));
  });
  if (!result->ok()) Fail("Deployment::Run", result->status());
  const DeploymentReport& report = **result;
  rep.final_error = report.final_error;
  rep.total_work = report.total_work;
  rep.mu = report.empirical_mu;
  rep.degraded = report.degraded_events;
  rep.retrainings = report.retrainings;
  rep.storage = report.storage;
  rep.chunks = report.chunks_processed;
  rep.client.stale_reads +=
      static_cast<uint64_t>(report.serving_stale_reads);
  rep.client.torn_reads += static_cast<uint64_t>(
      report.metrics.CounterValueOr("serving.torn_reads", 0));
  return rep;
}

RepResult RunTraced(const Workload& workload, const Inputs& inputs,
                    const std::string& spill_dir, SpanRecorder* spans) {
  RepResult rep;
  Prepared<TracedDeployment> prepared(inputs);
  Stopwatch setup;
  prepared.config = MakeConfig(workload, prepared.inputs, spill_dir);
  prepared.driver = std::make_unique<TracedDeployment>(
      prepared.config, *prepared.inputs.scenario, spans);
  if (workload.serving) {
    // The id only labels request spans; any value serves.
    prepared.tier = std::make_unique<ServingTier>(0);
    prepared.driver->AttachServing(&prepared.tier->publisher,
                                   &prepared.tier->service);
  }
  const Status init = prepared.driver->InitialTrain(prepared.inputs.bootstrap);
  if (!init.ok()) Fail("traced InitialTrain", init);
  if (prepared.tier != nullptr) {
    const Status started = prepared.tier->service.Start();
    if (!started.ok()) Fail("PredictionService::Start", started);
  }
  rep.setup_s = setup.ElapsedSeconds();

  spans->Clear();
  std::optional<Result<TracedDeployment::Outcome>> result;
  ReplayWithClient(&prepared, &rep, [&] {
    result.emplace(prepared.driver->Run(prepared.inputs.stream));
  });
  if (!result->ok()) Fail("traced Run", result->status());
  const TracedDeployment::Outcome& outcome = **result;
  rep.final_error = outcome.final_error;
  rep.total_work = outcome.total_work;
  rep.mu = outcome.mu;
  rep.degraded = outcome.counts.serve_eval_fallbacks;
  rep.storage = outcome.storage;
  rep.chunks = outcome.chunks_processed;
  rep.counts = outcome.counts;
  rep.spans = spans->Aggregate();
  return rep;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameResult(const RepResult& a, const RepResult& b) {
  return SameBits(a.final_error, b.final_error) &&
         a.total_work == b.total_work && SameBits(a.mu, b.mu) &&
         a.chunks == b.chunks;
}

/// The run's streams, generated once before any timing: stream i has seed
/// `kStreamsPerRun * seed + i`, and repetition r replays stream
/// `r % kStreamsPerRun`.
std::vector<Inputs> GenerateStreams(const Workload& workload, uint64_t seed) {
  std::vector<Inputs> streams;
  for (size_t i = 0; i < kStreamsPerRun; ++i) {
    streams.push_back(GenerateInputs(workload, seed * kStreamsPerRun + i));
  }
  return streams;
}

/// Every repeat of a stream agrees bit for bit with its first replay.
bool RepeatsAgree(const std::vector<RepResult>& reps) {
  for (size_t i = kStreamsPerRun; i < reps.size(); ++i) {
    if (!SameResult(reps[i], reps[i - kStreamsPerRun])) return false;
  }
  return true;
}

/// Total work summed over the run's streams (exact).
int64_t StreamsTotalWork(const std::vector<RepResult>& reps) {
  int64_t work = 0;
  for (size_t i = 0; i < kStreamsPerRun; ++i) work += reps[i].total_work;
  return work;
}

/// Final error averaged over the run's streams (exact).
double StreamsFinalError(const std::vector<RepResult>& reps) {
  double error = 0.0;
  for (size_t i = 0; i < kStreamsPerRun; ++i) error += reps[i].final_error;
  return error / static_cast<double>(kStreamsPerRun);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double RowsPerSecond(const RepResult& rep) {
  return static_cast<double>(rep.stream_rows) / rep.run_s;
}

/// Median over repetitions of `value(rep)`.
template <typename Fn>
double MedianOver(const std::vector<RepResult>& reps, Fn&& value) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const RepResult& rep : reps) values.push_back(value(rep));
  return Median(values);
}

/// Reference seconds per wall second during the repetition.
double ReferenceScale(const RepResult& rep) {
  return kReferenceCalibrationSeconds / rep.calibration_s;
}

/// Checks that accumulate into the run's `correct` flag, each printed.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::printf("  check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    all_ok_ = all_ok_ && ok;
  }
  bool all_ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

/// Every repetition loads the layers its workload is meant to load.
void CheckWorkloadShape(const Workload& workload,
                        const std::vector<RepResult>& reps,
                        const ClientStats& client, Checks* checks) {
  auto all = [&](auto pred) {
    return std::all_of(reps.begin(), reps.end(), pred);
  };
  checks->Expect(all([](const RepResult& r) {
                   return std::isfinite(r.final_error) &&
                          r.final_error > 0.0 && r.final_error < 1.0;
                 }),
                 "final error finite and in (0, 1)");
  checks->Expect(all([](const RepResult& r) { return r.degraded == 0; }),
                 "no degraded events");
  if (workload.memory_budget_share > 0.0) {
    checks->Expect(
        all([](const RepResult& r) { return r.mu > 0.0 && r.mu < 1.0; }),
        "mu strictly inside (0, 1)");
    checks->Expect(all([](const RepResult& r) {
                     return r.storage.chunks_spilled > 0 &&
                            r.storage.disk_loads + r.storage.prefetch_hits > 0;
                   }),
                   "raw chunks spilled and read back");
  } else {
    checks->Expect(
        all([](const RepResult& r) { return r.storage.chunks_spilled == 0; }),
        "no spill");
  }
  if (workload.strategy == bench::StrategyKind::kPeriodical) {
    checks->Expect(all([](const RepResult& r) { return r.retrainings > 0; }),
                   "periodical retraining ran");
  }
  if (workload.serving) {
    checks->Expect(all([](const RepResult& r) { return r.mu == 1.0; }),
                   "unbounded cache: every sample is a hit");
    checks->Expect(client.attempted > 0, "client sent requests");
    checks->Expect(client.bad_responses == 0,
                   "every answer has one score per surviving row");
    checks->Expect(client.stale_reads == 0 && client.torn_reads == 0,
                   "zero stale and torn snapshot reads");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n");
  for (const Metric& m : metrics) PrintMetric(m);
  std::string json =
      StrFormat("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Failed operations and attempts over a set of repetitions: stream chunks
/// plus client requests attempted; degraded events plus failed requests.
std::pair<int64_t, int64_t> AttemptedFailed(
    const std::vector<RepResult>& reps) {
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const RepResult& rep : reps) {
    attempted += rep.chunks + rep.client.attempted;
    failed += rep.degraded + rep.client.failed;
  }
  return {attempted, failed};
}

/// The client's view as named end-to-end serving figures (printed, not in
/// the JSON: only url_serving has a client).
void PrintClient(const ClientStats& client) {
  std::printf("  client: %lld requests at %.0f/s of %zu rows, %lld failed\n",
              static_cast<long long>(client.attempted),
              kClientRequestsPerSecond, kClientRowsPerRequest,
              static_cast<long long>(client.failed));
  PrintMetric({"serve_p50_us", Percentile(client.latency_us, 50), "us"});
  PrintMetric({"serve_p99_us", Percentile(client.latency_us, 99), "us"});
  PrintMetric(
      {"served_age_p50_ms", Percentile(client.age_us, 50) * 1e-3, "ms"});
  PrintMetric(
      {"served_age_p99_ms", Percentile(client.age_us, 99) * 1e-3, "ms"});
}

int RunEndToEnd(const Workload& workload, uint64_t seed, double seconds,
                const std::string& spill_dir) {
  Stopwatch total;
  const std::vector<Inputs> streams = GenerateStreams(workload, seed);
  std::vector<RepResult> reps;
  while (reps.size() < kStreamsPerRun || total.ElapsedSeconds() < seconds) {
    const size_t stream = reps.size() % kStreamsPerRun;
    // Passes on either side of the repetition follow drift within it; the
    // engine's thread count makes them load as many cores as the replay.
    const double before = CalibrationSeconds(workload.engine_threads);
    reps.push_back(RunUntraced(workload, streams[stream], spill_dir));
    RepResult& rep = reps.back();
    rep.calibration_s =
        0.5 * (before + CalibrationSeconds(workload.engine_threads));
    std::printf("  rep %zu (stream %zu): calibration %.4fs setup %.4fs "
                "run %.3fs (%.0f rows/s) work %lld error %.6f mu %.4f\n",
                reps.size(), stream, rep.calibration_s, rep.setup_s,
                rep.run_s, RowsPerSecond(rep),
                static_cast<long long>(rep.total_work), rep.final_error,
                rep.mu);
  }
  Checks checks;
  checks.Expect(RepeatsAgree(reps), "repeats of each stream bit-identical");
  ClientStats client;
  for (const RepResult& rep : reps) client.Append(rep.client);
  CheckWorkloadShape(workload, reps, client, &checks);
  if (workload.serving) PrintClient(client);
  const auto [attempted, failed] = AttemptedFailed(reps);
  PrintMetric({"failed_frac",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio"});

  const std::vector<Metric> metrics = {
      {"setup_s",
       MedianOver(reps,
                  [](const RepResult& r) {
                    return r.setup_s * ReferenceScale(r);
                  }),
       "s"},
      {"stream_rows_per_s",
       MedianOver(reps,
                  [](const RepResult& r) {
                    return RowsPerSecond(r) / ReferenceScale(r);
                  }),
       "rows/s"},
      {"total_work", static_cast<double>(StreamsTotalWork(reps)), "count"},
      {"final_error", StreamsFinalError(reps), "error"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintResult(checks.all_ok(), attempted, failed, metrics);
  return checks.all_ok() ? 0 : 1;
}

int RunPerLayer(const Workload& workload, uint64_t seed, double seconds,
                const std::string& spill_dir, const std::string& span_out) {
  Stopwatch total;
  const std::vector<Inputs> streams = GenerateStreams(workload, seed);
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  SpanRecorder spans;
  Checks checks;
  bool equal = true;
  // Alternate so drift in machine speed hits both sides alike.
  while (traced.size() < kStreamsPerRun || total.ElapsedSeconds() < seconds) {
    const Inputs& stream = streams[traced.size() % kStreamsPerRun];
    untraced.push_back(RunUntraced(workload, stream, spill_dir));
    traced.push_back(RunTraced(workload, stream, spill_dir, &spans));
    equal = equal && SameResult(untraced.back(), traced.back());
    std::printf("  pair %zu: untraced %.3fs traced %.3fs error %.6f/%.6f "
                "work %lld/%lld\n",
                traced.size(), untraced.back().run_s, traced.back().run_s,
                untraced.back().final_error, traced.back().final_error,
                static_cast<long long>(untraced.back().total_work),
                static_cast<long long>(traced.back().total_work));
  }
  if (!span_out.empty() && !spans.WriteChromeTrace(span_out)) {
    std::fprintf(stderr, "deploy_bench: cannot write %s\n", span_out.c_str());
    return 1;
  }
  checks.Expect(equal,
                "traced driver bit-equal to Deployment::Run (error, work, mu)");
  checks.Expect(RepeatsAgree(untraced) && RepeatsAgree(traced),
                "repeats of each stream bit-identical");

  // Client figures come from the untraced repetitions.
  ClientStats client;
  for (const RepResult& rep : untraced) client.Append(rep.client);
  CheckWorkloadShape(workload, untraced, client, &checks);

  // Span time per repetition: `seconds` or `self_seconds` of one name.
  auto span_s = [&](const char* name) {
    return MedianOver(traced, [name](const RepResult& rep) {
      auto it = rep.spans.find(name);
      return it == rep.spans.end() ? 0.0 : it->second.seconds;
    });
  };
  // Percentile over every call of `name` across traced repetitions.
  auto span_pct_us = [&](const char* name, double p) {
    std::vector<double> all;
    for (const RepResult& rep : traced) {
      auto it = rep.spans.find(name);
      if (it == rep.spans.end()) continue;
      all.insert(all.end(), it->second.durations_us.begin(),
                 it->second.durations_us.end());
    }
    return Percentile(all, p);
  };
  auto count = [&](auto field) {
    return MedianOver(traced, [field](const RepResult& rep) {
      return static_cast<double>(rep.counts.*field);
    });
  };
  auto per_rep = [&](auto value) { return MedianOver(traced, value); };
  auto rate = [](double amount, double secs) {
    return secs > 0.0 ? amount / secs : 0.0;
  };

  double step_s = 0.0;
  double unattributed_s = 0.0;
  for (const RepResult& rep : traced) {
    for (const auto& [name, totals] : rep.spans) {
      if (name == "core.chunk") step_s += totals.seconds;
      if (name.rfind("core.", 0) == 0) unattributed_s += totals.self_seconds;
    }
  }
  const double unattributed_frac = unattributed_s / step_s;
  checks.Expect(unattributed_frac <= kMaxUnattributedFrac,
                StrFormat("core.unattributed_frac %.4f <= %.2f",
                          unattributed_frac, kMaxUnattributedFrac));
  const double overhead_frac =
      1.0 - MedianOver(traced, RowsPerSecond) /
                MedianOver(untraced, RowsPerSecond);
  if (workload.serving) PrintClient(client);

  using Counts = TracedDeployment::Counts;
  const double publishes = count(&Counts::publishes);
  const std::vector<Metric> metrics = {
      {"core.chunk_p50_us", span_pct_us("core.chunk", 50), "us"},
      {"core.chunk_p99_us", span_pct_us("core.chunk", 99), "us"},
      {"core.unattributed_frac", unattributed_frac, "ratio"},
      {"core.trace_overhead_frac", overhead_frac, "ratio"},
      {"storage.ingest_s", span_s("storage.ingest"), "s"},
      {"storage.ingest_p99_us", span_pct_us("storage.ingest", 99), "us"},
      {"storage.store_features_s", span_s("storage.store_features"), "s"},
      {"storage.fetch_history_s", span_s("storage.fetch_history"), "s"},
      {"storage.prefetch_schedule_s", span_s("storage.prefetch_schedule"),
       "s"},
      {"storage.chunks_spilled",
       per_rep([](const RepResult& r) {
         return static_cast<double>(r.storage.chunks_spilled);
       }),
       "count"},
      {"storage.disk_loads",
       per_rep([](const RepResult& r) {
         return static_cast<double>(r.storage.disk_loads);
       }),
       "count"},
      {"storage.prefetch_hit_ratio",
       per_rep([](const RepResult& r) { return r.storage.PrefetchHitRate(); }),
       "ratio"},
      {"storage.spill_bytes_ratio",
       per_rep([](const RepResult& r) {
         return r.storage.SpillCompressionRatio();
       }),
       "ratio"},
      {"sampling.sample_s", span_s("sampling.sample"), "s"},
      {"sampling.sampled_chunks", count(&Counts::sampled_chunks), "count"},
      {"sampling.materialized_ratio",
       per_rep([](const RepResult& r) { return r.mu; }), "ratio"},
      {"pipeline.preprocess_s", span_s("pipeline.preprocess"), "s"},
      {"pipeline.preprocess_rows_per_s",
       rate(count(&Counts::preprocess_rows), span_s("pipeline.preprocess")),
       "rows/s"},
      {"pipeline.preprocess_p99_us", span_pct_us("pipeline.preprocess", 99),
       "us"},
      {"pipeline.rematerialize_s", span_s("pipeline.rematerialize"), "s"},
      {"pipeline.rematerialized_chunks", count(&Counts::rematerialized_chunks),
       "count"},
      {"pipeline.rematerialize_rows_per_s",
       rate(count(&Counts::rematerialized_rows),
            span_s("pipeline.rematerialize")),
       "rows/s"},
      {"ml.evaluate_s", span_s("ml.evaluate"), "s"},
      {"ml.online_update_s", span_s("ml.online_update"), "s"},
      {"ml.train_step_s", span_s("ml.train_step"), "s"},
      {"ml.train_step_rows", count(&Counts::train_step_rows), "count"},
      {"ml.retrain_s", span_s("ml.retrain"), "s"},
      {"ml.retrain_rows", count(&Counts::retrain_rows), "count"},
      {"ml.retrain_epochs", count(&Counts::retrain_epochs), "count"},
      {"serving.publish_s", span_s("serving.publish"), "s"},
      {"serving.publish_calls", publishes, "count"},
      {"serving.publish_p99_us", span_pct_us("serving.publish", 99), "us"},
      {"serving.pipeline_clone_ratio",
       publishes > 0 ? count(&Counts::pipeline_clones) / publishes : 0.0,
       "ratio"},
      {"serving.serve_eval_s", span_s("serving.serve_eval"), "s"},
      {"serving.service_p99_us", Percentile(client.service_us, 99), "us"},
      {"serving.queue_wait_p99_us", Percentile(client.queue_wait_us, 99),
       "us"},
      {"serving.generator_lag_p99_us", Percentile(client.lag_us, 99), "us"},
      {"serving.client_requests", static_cast<double>(client.attempted),
       "count"},
      {"serving.client_p50_us", Percentile(client.latency_us, 50), "us"},
      {"serving.client_p99_us", Percentile(client.latency_us, 99), "us"},
      {"serving.served_age_p50_ms", Percentile(client.age_us, 50) * 1e-3,
       "ms"},
      {"serving.served_age_p99_ms", Percentile(client.age_us, 99) * 1e-3,
       "ms"},
  };
  std::vector<RepResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  const auto [attempted, failed] = AttemptedFailed(all);
  PrintResult(checks.all_ok(), attempted, failed, metrics);
  return checks.all_ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const Workload* workload = FindWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "deploy_bench: unknown --workload '%s' (have:",
                 name.c_str());
    for (const Workload& w : AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  // Start and join one thread before any timing: the first thread a
  // process creates clears glibc's single-threaded fast paths for good, so
  // without this a run that never spawns threads would time differently.
  std::thread([] {}).join();
  const SpillDir spill(
      flags.GetString("spill_root", ".bench_build/deploybench/spill"));

  std::printf("deploy_bench workload=%s seed=%llu seconds=%.0f trace=%d\n",
              workload->name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  return trace ? RunPerLayer(*workload, seed, seconds, spill.path(),
                             flags.GetString("span_out", ""))
               : RunEndToEnd(*workload, seed, seconds, spill.path());
}

}  // namespace
}  // namespace deploybench
}  // namespace cdpipe

int main(int argc, char** argv) {
  return cdpipe::deploybench::Main(argc, argv);
}
