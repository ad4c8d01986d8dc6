#include "src/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/correlation.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {
namespace {

// The tracer is a process-wide singleton; every test starts from a known
// state and restores it (gtest_discover_tests runs each test in its own
// process, but the tests must also pass under a plain ./cdpipe_tests run).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  const std::string dynamic_name = "test.also-invisible";
  {
    Phase fixed("test.invisible");
    Phase dynamic(dynamic_name.c_str());
    EXPECT_EQ(fixed.Stop(), 0.0) << "nothing timed an untraced phase";
  }
  EXPECT_EQ(Tracer::Global().NumBufferedEvents(), 0u);
  EXPECT_EQ(Tracer::Global().ToChromeTraceJson().find("invisible"),
            std::string::npos);
}

TEST_F(TraceTest, DisabledSpanCostStaysNanoseconds) {
  // Acceptance bar: instrumentation left in per-row hot paths must be a few
  // ns when tracing is off.  The disabled constructor is one relaxed atomic
  // load; assert a very generous 200ns average to stay CI-proof.
  constexpr int kIterations = 1000000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    Phase phase("bench.hot");
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double nanos_per_span =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      kIterations;
  EXPECT_LT(nanos_per_span, 200.0);
  EXPECT_EQ(Tracer::Global().NumBufferedEvents(), 0u);
}

TEST_F(TraceTest, RecordsNestedSpans) {
  Tracer::Global().Enable();
  const std::string dynamic_name = "test.dynamic-name";
  {
    Phase outer("test.outer");
    {
      Phase inner("test.inner");
      Phase dynamic(dynamic_name.c_str());
    }
  }
  Tracer::Global().Disable();
  EXPECT_EQ(Tracer::Global().NumBufferedEvents(), 3u);

  const std::string json = Tracer::Global().ToChromeTraceJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.dynamic-name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
}

TEST_F(TraceTest, EscapesAndTruncatesNames) {
  Tracer::Global().Enable();
  const std::string quoted = "with \"quotes\" and \\slash";
  const std::string long_name(200, 'x');
  {
    Phase quoted_phase(quoted.c_str());
    Phase long_phase(long_name.c_str());
  }
  Tracer::Global().Disable();
  const std::string json = Tracer::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("with \\\"quotes\\\" and \\\\slash"),
            std::string::npos);
  // Names are copied into 64-byte fixed storage: 63 chars + NUL.
  EXPECT_NE(json.find(std::string(63, 'x')), std::string::npos);
  EXPECT_EQ(json.find(std::string(64, 'x')), std::string::npos);
}

TEST_F(TraceTest, ConcurrentSpansFromManyThreads) {
  Tracer::Global().Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Phase phase("test.worker");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Tracer::Global().Disable();
  EXPECT_EQ(Tracer::Global().NumBufferedEvents(),
            static_cast<size_t>(kThreads * kSpansPerThread));
  // Each recording thread is its own Chrome-trace tid.
  const std::string json = Tracer::Global().ToChromeTraceJson();
  std::set<std::string> tids;
  for (size_t at = json.find("\"tid\":"); at != std::string::npos;
       at = json.find("\"tid\":", at + 1)) {
    tids.insert(json.substr(at, json.find(',', at) - at));
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(TraceTest, WriteChromeTraceProducesLoadableFile) {
  Tracer::Global().Enable();
  {
    Phase phase("on-disk");
  }
  Tracer::Global().Disable();

  const std::string path =
      ::testing::TempDir() + "/cdpipe_trace_test_out.json";
  ASSERT_TRUE(Tracer::Global().WriteChromeTrace(path).ok());

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  EXPECT_EQ(contents, Tracer::Global().ToChromeTraceJson());
  EXPECT_NE(contents.find("\"on-disk\""), std::string::npos);
  EXPECT_NE(contents.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceFailsOnBadPath) {
  EXPECT_FALSE(
      Tracer::Global().WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

TEST_F(TraceTest, ClearDropsBufferedEvents) {
  Tracer::Global().Enable();
  {
    Phase phase("gone");
  }
  Tracer::Global().Disable();
  ASSERT_GE(Tracer::Global().NumBufferedEvents(), 1u);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().NumBufferedEvents(), 0u);
  EXPECT_EQ(Tracer::Global().ToChromeTraceJson().find("gone"),
            std::string::npos);
}

TEST_F(TraceTest, NowMicrosIsMonotonic) {
  const int64_t a = Tracer::NowMicros();
  const int64_t b = Tracer::NowMicros();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

TEST_F(TraceTest, SpansCaptureCorrelationScope) {
  Tracer::Global().Enable();
  {
    CorrelationScope scope(1, 42);
    Phase phase("correlated");
  }
  {
    Phase phase("uncorrelated");
  }
  Tracer::Global().Disable();
  const std::string json = Tracer::Global().ToChromeTraceJson();
  // The correlated span carries its ids as Chrome-trace args; the
  // uncorrelated one omits the args object entirely.
  const size_t correlated = json.find("\"name\":\"correlated\"");
  ASSERT_NE(correlated, std::string::npos);
  const size_t args = json.find(
      "\"args\":{\"deployment\":1,\"entity\":42}", correlated);
  const size_t next_event = json.find('}', json.find('}', correlated) + 1);
  EXPECT_NE(args, std::string::npos) << json;
  const size_t uncorrelated = json.find("\"name\":\"uncorrelated\"");
  ASSERT_NE(uncorrelated, std::string::npos);
  EXPECT_EQ(json.find("\"args\"", uncorrelated), std::string::npos);
  (void)next_event;
}

TEST_F(TraceTest, PhaseCategoryIsTheNamePrefix) {
  Tracer::Global().Enable();
  {
    Phase layered("core.chunk");
    Phase flat("flat");
  }
  Tracer::Global().Disable();
  const std::string json = Tracer::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"core.chunk\",\"cat\":\"core\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"flat\",\"cat\":\"flat\""),
            std::string::npos)
      << json;
}

TEST_F(TraceTest, PhaseObservesItsHistogramOnceFromOneTiming) {
  // Tracing stays off: a histogram alone makes the phase read the clock,
  // and Stop() ends it for good — the destructor adds nothing.
  Histogram histogram(Histogram::DefaultLatencyBoundsSeconds());
  double seconds = 0.0;
  {
    Phase phase("test.timed", &histogram);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    seconds = phase.Stop();
    EXPECT_EQ(phase.Stop(), 0.0);
  }
  EXPECT_GE(seconds, 0.002);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 1u);
  EXPECT_EQ(snapshot.sum, seconds);
  EXPECT_EQ(Tracer::Global().NumBufferedEvents(), 0u);
}

TEST_F(TraceTest, DropsFeedTheTraceDroppedCounter) {
  // The span ring is the journal's EventRing (its wrap tests hold the
  // drop-oldest order); here the overflow reaches obs.trace_dropped.
  obs::Counter* dropped =
      MetricsRegistry::Global().GetCounter("obs.trace_dropped");
  const int64_t before = dropped->Value();
  Tracer::Global().Enable();
  for (size_t i = 0; i < Tracer::kRingCapacity + 5; ++i) {
    Tracer::Global().RecordComplete("drop-me", static_cast<int64_t>(i), 1);
  }
  Tracer::Global().Disable();
  EXPECT_EQ(dropped->Value() - before, 5);
  EXPECT_EQ(Tracer::Global().NumBufferedEvents(), Tracer::kRingCapacity);
}

}  // namespace
}  // namespace obs
}  // namespace cdpipe
