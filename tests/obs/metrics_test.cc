#include "src/obs/metrics.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/exporters.h"

namespace cdpipe {
namespace obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(CounterTest, HotPathIsLockFree) {
  // The whole design rests on counters being a single atomic add; if the
  // platform degrades std::atomic<int64_t> to a lock, the "lock-free hot
  // path" claim is void.
  std::atomic<int64_t> probe{0};
  EXPECT_TRUE(probe.is_lock_free());
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.5);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketAssignmentUsesLeSemantics) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);  // bucket 0 (<= 1.0)
  histogram.Observe(1.0);  // bucket 0 (le: boundary belongs to the bucket)
  histogram.Observe(1.5);  // bucket 1
  histogram.Observe(4.0);  // bucket 2
  histogram.Observe(9.0);  // overflow

  HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.total_count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), (0.5 + 1.0 + 1.5 + 4.0 + 9.0) / 5.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram histogram({1.0, 2.0});
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 0.0);
}

TEST(HistogramTest, SingleSampleQuantileStaysInItsBucket) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(1.7);
  HistogramSnapshot snapshot = histogram.Snapshot();
  // Every quantile of a single sample lands in [1.0, 2.0]: the bucket that
  // holds the sample, interpolated from its lower edge (q=0 returns the
  // edge itself).
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.0), 1.0);
  for (double q : {0.25, 0.5, 0.95, 1.0}) {
    const double value = snapshot.Quantile(q);
    EXPECT_GT(value, 1.0) << "q=" << q;
    EXPECT_LE(value, 2.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileInterpolatesAtBucketBoundary) {
  Histogram histogram({1.0, 2.0});
  // 50 samples in bucket (<=1.0), 50 in (1.0, 2.0]: the median sits exactly
  // at the boundary between the two buckets.
  for (int i = 0; i < 50; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 50; ++i) histogram.Observe(1.5);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), 1.0);
  // p25 = halfway through the first bucket (interpolated from 0).
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.25), 0.5);
  // p75 = halfway through the second bucket.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.75), 1.5);
}

TEST(HistogramTest, OverflowQuantileClampsToLastFiniteBound) {
  Histogram histogram({1.0, 2.0});
  histogram.Observe(100.0);
  histogram.Observe(200.0);
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Quantile(0.95), 2.0);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram histogram({1.0});
  histogram.Observe(0.5);
  histogram.Observe(5.0);
  histogram.Reset();
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.0);
  for (uint64_t count : snapshot.counts) EXPECT_EQ(count, 0u);
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const std::vector<double> bounds = Histogram::DefaultLatencyBoundsSeconds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("events");
  Counter* b = registry.GetCounter("events");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("other"), a);
  // Different kinds live in different namespaces.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("events")),
            static_cast<void*>(a));
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.size() + snapshot.gauges.size() +
                snapshot.histograms.size(),
            3u);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedByFirstRegistration) {
  MetricsRegistry registry;
  Histogram* first = registry.GetHistogram("lat", {1.0, 2.0});
  Histogram* second = registry.GetHistogram("lat", {9.0});
  EXPECT_EQ(first, second);
  EXPECT_EQ(first->upper_bounds(), std::vector<double>({1.0, 2.0}));
  // Empty bounds pick the default latency buckets.
  Histogram* defaulted = registry.GetHistogram("lat2");
  EXPECT_EQ(defaulted->upper_bounds(),
            Histogram::DefaultLatencyBoundsSeconds());
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b_counter")->Add(2);
  registry.GetCounter("a_counter")->Add(1);
  registry.GetGauge("depth")->Set(7.0);
  registry.GetHistogram("lat", {1.0})->Observe(0.5);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a_counter");
  EXPECT_EQ(snapshot.counters[0].value, 1);
  EXPECT_EQ(snapshot.counters[1].name, "b_counter");
  EXPECT_EQ(snapshot.counters[1].value, 2);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 7.0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].hist.total_count, 1u);
}

TEST(MetricsRegistryTest, ResetValuesKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("events");
  counter->Add(5);
  registry.ResetValues();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(registry.GetCounter("events"), counter);
}

TEST(MetricsSnapshotTest, DeltaSubtractsCountersAndKeepsGauges) {
  MetricsRegistry registry;
  registry.GetCounter("events")->Add(10);
  registry.GetGauge("depth")->Set(3.0);
  Histogram* histogram = registry.GetHistogram("lat", {1.0, 2.0});
  histogram->Observe(0.5);
  MetricsSnapshot before = registry.Snapshot();

  registry.GetCounter("events")->Add(7);
  registry.GetCounter("fresh")->Add(2);
  registry.GetGauge("depth")->Set(9.0);
  histogram->Observe(1.5);
  histogram->Observe(1.5);
  MetricsSnapshot after = registry.Snapshot();

  MetricsSnapshot delta = MetricsSnapshot::Delta(before, after);
  ASSERT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters[0].name, "events");
  EXPECT_EQ(delta.counters[0].value, 7);
  EXPECT_EQ(delta.counters[1].name, "fresh");
  EXPECT_EQ(delta.counters[1].value, 2);  // only-in-after counts from zero
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.gauges[0].value, 9.0);  // gauges keep `after`
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].hist.total_count, 2u);
  EXPECT_EQ(delta.histograms[0].hist.counts[1], 2u);
  EXPECT_EQ(delta.histograms[0].hist.counts[0], 0u);
  EXPECT_DOUBLE_EQ(delta.histograms[0].hist.sum, 3.0);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesFromManyThreads) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Mix registration (mutex path) and updates (lock-free path).
      Counter* counter = registry.GetCounter("shared.counter");
      Histogram* histogram =
          registry.GetHistogram("shared.lat", {1.0, 2.0, 4.0});
      Gauge* gauge = registry.GetGauge("shared.gauge");
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Increment();
        histogram->Observe(static_cast<double>((t + i) % 5));
        gauge->Add(1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry.GetCounter("shared.counter")->Value(),
            kThreads * kOpsPerThread);
  HistogramSnapshot histogram =
      registry.GetHistogram("shared.lat")->Snapshot();
  EXPECT_EQ(histogram.total_count,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t count : histogram.counts) bucket_total += count;
  EXPECT_EQ(bucket_total, histogram.total_count);
  EXPECT_DOUBLE_EQ(registry.GetGauge("shared.gauge")->Value(),
                   static_cast<double>(kThreads * kOpsPerThread));
}

TEST(MetricsRegistryTest, DisabledPathCostStaysNanoseconds) {
  // The acceptance bar: instrumentation left in hot paths must cost a few
  // nanoseconds per event.  A relaxed atomic add is ~1ns; we assert a very
  // generous 200ns average so the test never flakes on loaded CI machines.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("bench.counter");
  constexpr int kIterations = 1000000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) counter->Increment();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double nanos_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      kIterations;
  EXPECT_EQ(counter->Value(), kIterations);
  EXPECT_LT(nanos_per_op, 200.0);
}

TEST(ExportersTest, PrometheusNameSanitizes) {
  EXPECT_EQ(PrometheusName("chunk_store.sample_hits"),
            "cdpipe_chunk_store_sample_hits");
  EXPECT_EQ(PrometheusName("weird-name/42"), "cdpipe_weird_name_42");
}

TEST(ExportersTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("events")->Add(3);
  registry.GetGauge("depth")->Set(1.5);
  Histogram* histogram = registry.GetHistogram("lat", {1.0, 2.0});
  histogram->Observe(0.5);
  histogram->Observe(1.5);
  histogram->Observe(9.0);

  const std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE cdpipe_events counter"), std::string::npos);
  EXPECT_NE(text.find("cdpipe_events 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cdpipe_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cdpipe_lat histogram"), std::string::npos);
  // Buckets are cumulative: le="2" covers both the 0.5 and 1.5 samples.
  EXPECT_NE(text.find("cdpipe_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cdpipe_lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("cdpipe_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("cdpipe_lat_count 3"), std::string::npos);
  EXPECT_NE(text.find("cdpipe_lat_sum 11"), std::string::npos);
}

TEST(ExportersTest, HelpTextEscaping) {
  EXPECT_EQ(PrometheusEscapeHelp("plain help"), "plain help");
  EXPECT_EQ(PrometheusEscapeHelp("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(PrometheusEscapeHelp("back\\slash"), "back\\\\slash");
}

TEST(ExportersTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("a\x01" "b"), "a\\u0001b");
}

TEST(ExportersTest, HelpLinesPrecedeTypeLines) {
  MetricsRegistry registry;
  registry.GetCounter("helped.counter", "Counts things.\nSecond line \\ ok");
  registry.GetGauge("helped.gauge", "Current level");
  registry.GetHistogram("helped.hist", {1.0, 2.0}, "Latency");
  registry.GetCounter("plain.counter");  // no help -> no HELP line

  const std::string text = ToPrometheusText(registry.Snapshot());
  const size_t help_pos =
      text.find("# HELP cdpipe_helped_counter Counts things.\\nSecond line "
                "\\\\ ok\n");
  const size_t type_pos = text.find("# TYPE cdpipe_helped_counter counter\n");
  ASSERT_NE(help_pos, std::string::npos) << text;
  ASSERT_NE(type_pos, std::string::npos);
  EXPECT_LT(help_pos, type_pos);
  EXPECT_NE(text.find("# HELP cdpipe_helped_gauge Current level\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP cdpipe_helped_hist Latency\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# HELP cdpipe_plain_counter"), std::string::npos);

  // First non-empty help wins.
  registry.GetCounter("helped.counter", "different help");
  EXPECT_NE(ToPrometheusText(registry.Snapshot())
                .find("# HELP cdpipe_helped_counter Counts things."),
            std::string::npos);
}

// Line-by-line format-compliance check against the text exposition format:
// every line is a comment (`# HELP`/`# TYPE`) or a `name[{labels}] value`
// sample with a legal metric name and a parseable value.
TEST(ExportersTest, PrometheusOutputIsFormatCompliant) {
  MetricsRegistry registry;
  registry.GetCounter("compliance.requests", "Requests served")->Add(7);
  registry.GetGauge("compliance.level")->Set(-2.5);
  registry.GetHistogram("compliance.latency", {0.1, 1.0, 10.0},
                        "Request latency");
  registry.GetHistogram("compliance.latency")->Observe(0.5);
  registry.GetCounter("weird-name/with.bad chars")->Increment();

  const std::string text = ToPrometheusText(registry.Snapshot());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n') << "exposition must end with a newline";

  const auto is_name_char = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    return first ? alpha : (alpha || (c >= '0' && c <= '9'));
  };
  size_t start = 0;
  int samples = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // Sample line: <name>[{label="value"}] <value>
    size_t i = 0;
    ASSERT_TRUE(is_name_char(line[0], true)) << line;
    while (i < line.size() && is_name_char(line[i], false)) ++i;
    EXPECT_EQ(line.compare(0, 7, "cdpipe_"), 0) << line;
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      const std::string labels = line.substr(i + 1, close - i - 1);
      EXPECT_NE(labels.find("=\""), std::string::npos) << line;
      i = close + 1;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    const std::string value = line.substr(i + 1);
    ASSERT_FALSE(value.empty()) << line;
    // Parseable as a double and consumes the whole token.
    size_t consumed = 0;
    (void)std::stod(value, &consumed);
    EXPECT_EQ(consumed, value.size()) << line;
    ++samples;
  }
  // 3 plain metrics + sanitized metric + histogram (3 finite buckets +
  // +Inf + sum + count).
  EXPECT_EQ(samples, 9);

  // Histogram buckets are cumulative and le="+Inf" equals _count.
  EXPECT_NE(text.find("cdpipe_compliance_latency_bucket{le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cdpipe_compliance_latency_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cdpipe_compliance_latency_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cdpipe_compliance_latency histogram"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace cdpipe
