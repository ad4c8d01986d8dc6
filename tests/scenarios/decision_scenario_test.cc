// One decision, one count, one line: across the fault table, every decision
// the deployment takes is journaled once, moves its counter once and — when
// it is logged — writes one stderr line.  The counter and the journal are
// two views of one obs::Record call, so they must agree exactly.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/obs/decision.h"
#include "src/obs/event_journal.h"
#include "tests/scenarios/scenario_runner.h"

namespace cdpipe {
namespace testing {
namespace {

namespace fs = std::filesystem;
using obs::Decision;
using obs::DecisionSpec;
using obs::EventJournal;
using obs::JournalEvent;

constexpr size_t kNumDecisions = static_cast<size_t>(Decision::kNumDecisions);

/// The decision behind a log line of journal kind `kind` whose text after
/// the kind is `rest`: the decision of that kind whose fixed detail opens
/// `rest`, else the kind's decision without a fixed detail.
std::optional<Decision> Classify(const std::string& kind,
                                 const std::string& rest) {
  std::optional<Decision> open_detail;
  for (size_t i = 0; i < kNumDecisions; ++i) {
    const Decision decision = static_cast<Decision>(i);
    const DecisionSpec& spec = obs::SpecOf(decision);
    if (spec.kind != kind) continue;
    const std::string fixed = spec.detail;
    if (fixed.empty()) {
      open_detail = decision;
    } else if (rest.rfind(fixed, 0) == 0 &&
               (rest.size() == fixed.size() || rest[fixed.size()] == ' ' ||
                rest[fixed.size()] == ':')) {
      return decision;
    }
  }
  return open_detail;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// Per decision: its journal events, and its stderr lines when the line
/// carries the decision's declared level.
struct Tally {
  std::map<Decision, int64_t> events;
  std::map<Decision, int64_t> lines;
};

Tally Count(const std::vector<JournalEvent>& events,
            const std::string& stderr_text) {
  Tally tally;
  for (const JournalEvent& e : events) tally.events[e.decision] += 1;
  // "[<time> <LEVEL> t<id> <file>:<line>] <kind>[ <detail>...]"
  std::istringstream lines(stderr_text);
  for (std::string line; std::getline(lines, line);) {
    const size_t close = line.find("] ");
    if (line.empty() || line[0] != '[' || close == std::string::npos) continue;
    const std::string message = line.substr(close + 2);
    for (size_t i = 0; i < kNumDecisions; ++i) {
      const DecisionSpec& spec = obs::SpecOf(static_cast<Decision>(i));
      const std::string kind = spec.kind;
      if (message.rfind(kind, 0) != 0 ||
          (message.size() > kind.size() && message[kind.size()] != ' ' &&
           message[kind.size()] != ':')) {
        continue;
      }
      const std::string rest =
          message.size() > kind.size() ? message.substr(kind.size() + 1) : "";
      const std::optional<Decision> decision = Classify(kind, rest);
      EXPECT_TRUE(decision.has_value()) << line;
      if (!decision.has_value()) break;
      const std::optional<LogLevel> level = obs::SpecOf(*decision).level;
      EXPECT_TRUE(level.has_value()) << "unlogged decision logged: " << line;
      if (!level.has_value()) break;
      EXPECT_NE(line.find(std::string(" ") + LevelTag(*level) + " "),
                std::string::npos)
          << line;
      tally.lines[*decision] += 1;
      break;
    }
  }
  return tally;
}

/// A fault-table entry: the scenario and the decision it must exercise.
struct Entry {
  const char* name;
  Decision exercised;
};

class DecisionScenarioTest : public ::testing::TestWithParam<Entry> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("cdpipe_decision_scenario_") + GetParam().name);
    fs::create_directories(dir_);
    EventJournal::Global().Clear();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    EventJournal::Global().Clear();
  }

  Scenario Build(const std::string& name) const {
    Scenario scenario;
    scenario.name = name;
    scenario.engine_threads = 4;
    scenario.store.max_materialized_chunks = 4;
    const auto spill = [&] {
      size_t raw_bytes = 0;
      for (const RawChunk& chunk : MakeScenarioStream(scenario.num_chunks)) {
        raw_bytes += chunk.ByteSize();
      }
      scenario.engine_threads = 1;
      scenario.store.max_materialized_chunks = 3;
      scenario.store.memory_budget_bytes = raw_bytes / 4;
      scenario.store.spill_dir = dir_.string();
    };
    if (name == "FlakyEngine") {
      scenario.faults = {{"engine.task", FaultRule::Probability(0.3, 71)}};
    } else if (name == "RematerializeFirstN") {
      scenario.strategy = ScenarioStrategy::kDrift;
      scenario.faults = {{"pipeline.rematerialize", FaultRule::FirstN(8)}};
    } else if (name == "CorruptSpillFiles") {
      spill();
      scenario.faults = {{"spill.corrupt", FaultRule::EveryN(4)}};
    } else if (name == "SpillReadFailures") {
      spill();
      scenario.faults = {{"spill.read", FaultRule::Probability(0.3, 99)}};
    } else if (name == "ShapedOverloadSheds") {
      scenario.shaped = true;
      scenario.attach_serving = true;
      scenario.traffic.shape = TrafficShape::kSustainedOverload;
      scenario.traffic.base_period_seconds = 60.0;
      scenario.traffic.overload_factor = 3.0;
      scenario.admission.queue_capacity = 4;
      scenario.admission.high_watermark = 3;
      scenario.admission.low_watermark = 1;
      scenario.admission.policy = AdmissionPolicy::kDegrade;
      scenario.admission.service_seconds_per_chunk = 30.0;
      scenario.publish_staleness_bound_chunks = 2;
    } else if (name == "ServeEvalFallback") {
      scenario.attach_serving = true;
      scenario.serve_evaluation = true;
      scenario.faults = {{"serving.request", FaultRule::FirstN(2)}};
    }
    return scenario;
  }

  fs::path dir_;
};

TEST_P(DecisionScenarioTest, EachDecisionCountsAndLogsOnce) {
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  const ScenarioResult result = RunScenario(Build(GetParam().name));
  const std::string captured = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved_level);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  EventJournal& journal = EventJournal::Global();
  ASSERT_EQ(journal.TotalDropped(), 0u) << "the run must fit in the ring";
  const Tally tally = Count(journal.Tail(journal.capacity()), captured);
  EXPECT_GT(tally.events.count(GetParam().exercised), 0u)
      << "the scenario never took its decision";

  // One count: each counter moved once per journal event of the decisions
  // that declare it (the trailing checkpoint save declares none).
  std::map<std::string, int64_t> journaled;
  for (size_t i = 0; i < kNumDecisions; ++i) {
    const Decision decision = static_cast<Decision>(i);
    const DecisionSpec& spec = obs::SpecOf(decision);
    if (spec.counter == nullptr) continue;
    const auto it = tally.events.find(decision);
    journaled[spec.counter] += it == tally.events.end() ? 0 : it->second;
  }
  for (const auto& [counter, events] : journaled) {
    EXPECT_EQ(result.report.metrics.CounterValueOr(counter, 0), events)
        << counter;
  }

  // The report's storage counts are the chunk store's, /metrics the
  // decisions': they agree on every sampled chunk, including one whose
  // spilled bytes were lost (sample_chunk_unavailable counts as a miss).
  EXPECT_EQ(result.report.storage.sample_misses,
            result.report.metrics.CounterValueOr("chunk_store.sample_misses",
                                                 0));
  EXPECT_EQ(
      result.report.storage.SampleHits(),
      result.report.metrics.CounterValueOr("chunk_store.sample_hits", 0));

  // One line: each logged decision wrote one line per journal event.
  for (size_t i = 0; i < kNumDecisions; ++i) {
    const Decision decision = static_cast<Decision>(i);
    const auto events = tally.events.find(decision);
    const auto lines = tally.lines.find(decision);
    const int64_t expected =
        obs::SpecOf(decision).level.has_value() && events != tally.events.end()
            ? events->second
            : 0;
    EXPECT_EQ(lines == tally.lines.end() ? 0 : lines->second, expected)
        << obs::SpecOf(decision).kind << " " << obs::SpecOf(decision).detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultTable, DecisionScenarioTest,
    ::testing::Values(
        Entry{"FlakyEngine", Decision::kRetry},
        Entry{"RematerializeFirstN", Decision::kChunkSkipped},
        Entry{"CorruptSpillFiles", Decision::kSpillCorruptDropped},
        Entry{"SpillReadFailures", Decision::kSpillReadFailed},
        Entry{"ShapedOverloadSheds", Decision::kShedNewest},
        Entry{"ServeEvalFallback", Decision::kServeEvalFallback}),
    [](const ::testing::TestParamInfo<Entry>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace testing
}  // namespace cdpipe
