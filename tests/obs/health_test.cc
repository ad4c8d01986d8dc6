#include "src/obs/health.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/decision.h"
#include "src/obs/event_journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace obs {
namespace {

TEST(HeartbeatTest, BeatUpdatesTimestampAndCount) {
  Heartbeat heartbeat;
  EXPECT_EQ(heartbeat.last_beat_us(), -1);
  EXPECT_EQ(heartbeat.beats(), 0u);
  heartbeat.Beat();
  EXPECT_GE(heartbeat.last_beat_us(), 0);
  EXPECT_EQ(heartbeat.beats(), 1u);
}

TEST(HeartbeatTest, WorkScopeTracksBusyCount) {
  Heartbeat heartbeat;
  {
    Heartbeat::WorkScope outer(&heartbeat);
    EXPECT_EQ(heartbeat.busy(), 1);
    {
      Heartbeat::WorkScope inner(&heartbeat);
      EXPECT_EQ(heartbeat.busy(), 2);
    }
    EXPECT_EQ(heartbeat.busy(), 1);
  }
  EXPECT_EQ(heartbeat.busy(), 0);
  EXPECT_EQ(heartbeat.beats(), 4u);  // two BeginWork + two EndWork
  Heartbeat::WorkScope null_scope(nullptr);  // must be a safe no-op
}

// ctest runs each test in its own process, so this beat is the process's
// first reading of the obs clock.  It must read >= 0 and, once the deadline
// passes, stall like any later beat.
TEST(HeartbeatTest, FirstBeatOfTheProcessStallsPastTheDeadline) {
  HealthRegistry registry;
  Heartbeat* engine = registry.GetHeartbeat("engine");
  engine->BeginWork();
  EXPECT_GE(engine->last_beat_us(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::vector<SubsystemHealth> snapshot =
      registry.Snapshot(/*stall_deadline_seconds=*/0.001, Tracer::NowMicros());
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_TRUE(snapshot[0].stalled) << snapshot[0].last_beat_us;
  engine->EndWork();
}

TEST(HealthRegistryTest, ReturnsStablePointers) {
  HealthRegistry registry;
  Heartbeat* a = registry.GetHeartbeat("engine");
  Heartbeat* b = registry.GetHeartbeat("engine");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetHeartbeat("trainer"), a);
  EXPECT_EQ(registry.Snapshot(/*stall_deadline_seconds=*/1.0, /*now_us=*/0)
                .size(),
            2u);
}

TEST(HealthRegistryTest, SnapshotComputesStallState) {
  HealthRegistry registry;
  Heartbeat* idle = registry.GetHeartbeat("idle");
  Heartbeat* busy = registry.GetHeartbeat("busy");
  idle->Beat();
  busy->BeginWork();

  const int64_t now = Tracer::NowMicros();
  // Far future: both are silent for > deadline, but only the busy one
  // counts as stalled.
  const int64_t later = now + 10 * 1000 * 1000;
  std::vector<SubsystemHealth> snapshot = registry.Snapshot(5.0, later);
  ASSERT_EQ(snapshot.size(), 2u);
  const SubsystemHealth& busy_health =
      snapshot[0].name == "busy" ? snapshot[0] : snapshot[1];
  const SubsystemHealth& idle_health =
      snapshot[0].name == "idle" ? snapshot[0] : snapshot[1];
  EXPECT_TRUE(busy_health.stalled);
  EXPECT_GT(busy_health.age_seconds, 5.0);
  EXPECT_FALSE(idle_health.stalled) << "idle subsystems never stall";

  // Within the deadline nothing is stalled.
  snapshot = registry.Snapshot(5.0, now + 1000);
  for (const SubsystemHealth& s : snapshot) EXPECT_FALSE(s.stalled);
  busy->EndWork();
}

TEST(HealthRegistryTest, NeverBeatSubsystemIsNotStalled) {
  HealthRegistry registry;
  registry.GetHeartbeat("registered-but-silent");
  const std::vector<SubsystemHealth> snapshot =
      registry.Snapshot(0.001, Tracer::NowMicros() + 1000000);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_FALSE(snapshot[0].stalled);
}

TEST(HealthToJsonTest, EmitsReadyFlagAndSubsystems) {
  SubsystemHealth s;
  s.name = "engine";
  s.busy = 1;
  s.beats = 12;
  s.age_seconds = 0.25;
  s.stalled = true;
  const std::string json = HealthToJson({s}, /*ready=*/false);
  EXPECT_EQ(json.rfind("{\"ready\":false,", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"busy\":1"), std::string::npos);
  EXPECT_NE(json.find("\"beats\":12"), std::string::npos);
  EXPECT_NE(json.find("\"stalled\":true"), std::string::npos);
  EXPECT_EQ(HealthToJson({}, true), "{\"ready\":true,\"subsystems\":[]}");
}

int64_t GlobalCount(const char* counter) {
  return MetricsRegistry::Global().GetCounter(counter)->Value();
}

TEST(WatchdogTest, DetectsStallAndRecovery) {
  const int64_t stalls = GlobalCount("obs.stalls");
  const int64_t recoveries = GlobalCount("obs.recoveries");
  HealthRegistry registry;
  EventJournal journal(64);
  Watchdog::Options options;
  options.stall_deadline_seconds = 0.01;
  options.health = &registry;
  options.journal = &journal;
  Watchdog watchdog(options);
  EXPECT_TRUE(watchdog.ready());

  Heartbeat* engine = registry.GetHeartbeat("engine");
  engine->BeginWork();
  // Let the heartbeat go silent past the 10ms deadline, then poll inline.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  watchdog.PollOnce();
  EXPECT_FALSE(watchdog.ready());
  EXPECT_EQ(GlobalCount("obs.stalls") - stalls, 1);

  // A second poll while still stalled must not double-count.
  watchdog.PollOnce();
  EXPECT_EQ(GlobalCount("obs.stalls") - stalls, 1);

  // The stall event names the subsystem.
  std::vector<JournalEvent> events = journal.Tail(10);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].decision, Decision::kStall);
  EXPECT_STREQ(events[0].detail, "engine");

  // Progress resumes: readiness flips back and a recover event is logged.
  engine->Beat();
  watchdog.PollOnce();
  EXPECT_TRUE(watchdog.ready());
  EXPECT_EQ(GlobalCount("obs.recoveries") - recoveries, 1);
  events = journal.Tail(10);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].decision, Decision::kRecover);
  engine->EndWork();
}

TEST(WatchdogTest, BackgroundThreadPollsOnItsOwn) {
  const int64_t stalls = GlobalCount("obs.stalls");
  HealthRegistry registry;
  EventJournal journal(64);
  Watchdog::Options options;
  options.stall_deadline_seconds = 0.01;
  options.poll_interval_seconds = 0.005;
  options.health = &registry;
  options.journal = &journal;
  Watchdog watchdog(options);

  Heartbeat* trainer = registry.GetHeartbeat("trainer");
  trainer->BeginWork();
  watchdog.Start();
  // The background loop must notice the silent-but-busy trainer without any
  // manual PollOnce calls.
  for (int i = 0; i < 200 && watchdog.ready(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(watchdog.ready());
  watchdog.Stop();
  trainer->EndWork();
  EXPECT_GE(GlobalCount("obs.stalls") - stalls, 1);
}

}  // namespace
}  // namespace obs
}  // namespace cdpipe
