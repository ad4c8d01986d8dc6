#include "src/core/admission.h"

#include <vector>

#include "gtest/gtest.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace {

RawChunk MakeChunk(ChunkId id) {
  RawChunk chunk;
  chunk.id = id;
  chunk.records.push_back("+1 1:0.5");
  return chunk;
}

AdmissionController::Decision Offer(AdmissionController* admission,
                                    ChunkId id, double arrival) {
  RawChunk chunk = MakeChunk(id);
  return admission->Offer(&chunk, arrival);
}

TEST(AdmissionControllerTest, AdmitsFifoAndTracksVirtualCompletionTimes) {
  AdmissionController::Options options;
  options.queue_capacity = 8;
  options.service_seconds_per_chunk = 2.0;
  AdmissionController admission(options);

  for (ChunkId id = 1; id <= 4; ++id) {
    EXPECT_EQ(Offer(&admission, id, static_cast<double>(id)),
              AdmissionController::Decision::kAdmitted);
  }
  EXPECT_EQ(admission.depth(), 4u);

  // FIFO order; the drain clock serializes service: chunk 1 completes at
  // 1+2=3, chunk 2 at max(3, 2)+2=5, then 7, 9.
  const double expected_completions[] = {3.0, 5.0, 7.0, 9.0};
  for (ChunkId id = 1; id <= 4; ++id) {
    ASSERT_FALSE(admission.empty());
    AdmissionController::Admitted admitted = admission.Pop();
    EXPECT_EQ(admitted.chunk.id, id);
    EXPECT_FALSE(admitted.degraded);
    EXPECT_DOUBLE_EQ(admitted.completion_seconds,
                     expected_completions[id - 1]);
  }
  EXPECT_TRUE(admission.empty());
  EXPECT_EQ(admission.counters().offered, 4);
  EXPECT_EQ(admission.counters().admitted, 4);
  EXPECT_EQ(admission.counters().shed(), 0);
  EXPECT_EQ(admission.counters().peak_queue_depth, 4);
}

TEST(AdmissionControllerTest, WatermarkStateMachineHasHysteresis) {
  AdmissionController::Options options;
  options.queue_capacity = 8;  // defaults: high = 6, low = 2
  options.policy = AdmissionPolicy::kShedNewest;
  AdmissionController admission(options);

  // Depth 1..2: normal.  3..5: pressured.  6: overloaded.
  for (ChunkId id = 1; id <= 2; ++id) Offer(&admission, id, 0.0);
  EXPECT_EQ(admission.state(), LoadState::kNormal);
  Offer(&admission, 3, 0.0);
  EXPECT_EQ(admission.state(), LoadState::kPressured);
  for (ChunkId id = 4; id <= 6; ++id) Offer(&admission, id, 0.0);
  EXPECT_EQ(admission.state(), LoadState::kOverloaded);

  // Draining through the mid-band keeps the overload verdict sticky.
  admission.Pop();  // depth 5
  admission.Pop();  // depth 4
  admission.Pop();  // depth 3
  EXPECT_EQ(admission.state(), LoadState::kOverloaded);
  admission.Pop();  // depth 2 == low watermark
  EXPECT_EQ(admission.state(), LoadState::kNormal);

  // normal -> pressured -> overloaded -> normal = 3 transitions.
  EXPECT_EQ(admission.counters().pressure_changes, 3);
}

TEST(AdmissionControllerTest, ShedOldestDisplacesQueueHead) {
  AdmissionController::Options options;
  options.queue_capacity = 2;
  options.high_watermark = 2;
  options.low_watermark = 1;
  options.policy = AdmissionPolicy::kShedOldest;
  AdmissionController admission(options);

  Offer(&admission, 1, 0.0);
  Offer(&admission, 2, 0.0);
  EXPECT_EQ(Offer(&admission, 3, 0.0),
            AdmissionController::Decision::kAdmittedReplacedOldest);

  EXPECT_EQ(admission.Pop().chunk.id, 2);
  EXPECT_EQ(admission.Pop().chunk.id, 3);
  EXPECT_EQ(admission.counters().offered, 3);
  EXPECT_EQ(admission.counters().admitted, 3);
  EXPECT_EQ(admission.counters().shed(), 1);
  EXPECT_EQ(admission.counters().shed_oldest, 1);
  // chunks processed == admitted - shed_oldest.
  EXPECT_EQ(admission.counters().admitted - admission.counters().shed_oldest,
            2);
}

TEST(AdmissionControllerTest, ShedNewestDropsArrivalAndLeavesChunkIntact) {
  AdmissionController::Options options;
  options.queue_capacity = 2;
  options.high_watermark = 2;
  options.low_watermark = 1;
  options.policy = AdmissionPolicy::kShedNewest;
  AdmissionController admission(options);

  Offer(&admission, 1, 0.0);
  Offer(&admission, 2, 0.0);
  RawChunk arrival = MakeChunk(3);
  EXPECT_EQ(admission.Offer(&arrival, 0.0),
            AdmissionController::Decision::kShed);
  EXPECT_EQ(arrival.id, 3);  // untouched on shed
  EXPECT_EQ(arrival.num_rows(), 1u);

  EXPECT_EQ(admission.counters().shed_newest, 1);
  EXPECT_EQ(admission.counters().offered,
            admission.counters().admitted + admission.counters().shed_newest +
                admission.counters().shed_timeout);
}

TEST(AdmissionControllerTest, DegradePolicyFlagsAdmitsUnderPressure) {
  AdmissionController::Options options;
  options.queue_capacity = 4;
  options.high_watermark = 3;
  options.low_watermark = 1;
  options.policy = AdmissionPolicy::kDegrade;
  AdmissionController admission(options);

  // First three offers happen at normal/pressured states rising; the state
  // seen *at offer time* decides the flag.
  EXPECT_EQ(Offer(&admission, 1, 0.0),
            AdmissionController::Decision::kAdmitted);  // state was normal
  EXPECT_EQ(Offer(&admission, 2, 0.0),
            AdmissionController::Decision::kAdmitted);  // still normal
  EXPECT_EQ(Offer(&admission, 3, 0.0),
            AdmissionController::Decision::kAdmittedDegraded);  // pressured
  EXPECT_EQ(Offer(&admission, 4, 0.0),
            AdmissionController::Decision::kAdmittedDegraded);  // overloaded
  EXPECT_EQ(admission.counters().degraded_admits, 2);

  // Capacity stays a hard bound: the fifth arrival is shed, not queued.
  EXPECT_EQ(Offer(&admission, 5, 0.0),
            AdmissionController::Decision::kShed);
  EXPECT_EQ(admission.counters().shed_newest, 1);
  EXPECT_EQ(admission.depth(), 4u);

  EXPECT_FALSE(admission.Pop().degraded);
  EXPECT_FALSE(admission.Pop().degraded);
  EXPECT_TRUE(admission.Pop().degraded);
  EXPECT_TRUE(admission.Pop().degraded);
}

TEST(AdmissionControllerTest, BlockPolicyWouldBlockUntilVirtualDrain) {
  AdmissionController::Options options;
  options.queue_capacity = 2;
  options.high_watermark = 2;
  options.low_watermark = 1;
  options.policy = AdmissionPolicy::kBlock;
  options.service_seconds_per_chunk = 1.0;
  AdmissionController admission(options);

  Offer(&admission, 1, 0.0);
  Offer(&admission, 2, 0.0);
  RawChunk blocked = MakeChunk(3);
  EXPECT_EQ(admission.Offer(&blocked, 0.0),
            AdmissionController::Decision::kWouldBlock);
  // kWouldBlock is not an offer: re-offering must not double count.
  EXPECT_EQ(admission.counters().offered, 2);

  // The producer virtually waits for the head's completion, then re-offers
  // at that time.
  EXPECT_DOUBLE_EQ(admission.HeadCompletionSeconds(), 1.0);
  AdmissionController::Admitted head = admission.Pop();
  EXPECT_DOUBLE_EQ(head.completion_seconds, 1.0);
  EXPECT_EQ(admission.Offer(&blocked, head.completion_seconds),
            AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.counters().offered, 3);
  EXPECT_DOUBLE_EQ(admission.drain_free_at(), 1.0);
}

TEST(AdmissionControllerTest, ShedBlockedAccountsTimeoutSheds) {
  AdmissionController::Options options;
  options.queue_capacity = 2;
  options.high_watermark = 2;
  options.low_watermark = 1;
  AdmissionController admission(options);

  Offer(&admission, 1, 0.0);
  Offer(&admission, 2, 0.0);
  admission.ShedBlocked(3);
  EXPECT_EQ(admission.counters().offered, 3);
  EXPECT_EQ(admission.counters().shed(), 1);
  EXPECT_EQ(admission.counters().shed_timeout, 1);
  EXPECT_EQ(admission.counters().offered,
            admission.counters().admitted + admission.counters().shed_newest +
                admission.counters().shed_timeout);
}

TEST(AdmissionControllerTest, ArrivalClockIsClampedMonotonic) {
  AdmissionController::Options options;
  options.queue_capacity = 4;
  options.service_seconds_per_chunk = 1.0;
  AdmissionController admission(options);

  Offer(&admission, 1, 10.0);
  // An out-of-order arrival timestamp is clamped to the last offer time.
  Offer(&admission, 2, 5.0);
  admission.Pop();  // completes at 11
  AdmissionController::Admitted second = admission.Pop();
  // Chunk 2's effective arrival is 10, service starts at drain 11.
  EXPECT_DOUBLE_EQ(second.completion_seconds, 12.0);
}

TEST(AdmissionControllerTest, DestructorResetsReadinessGauges) {
  obs::Gauge* load_state =
      obs::MetricsRegistry::Global().GetGauge("ingest.load_state");
  obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("ingest.queue_depth");
  {
    AdmissionController::Options options;
    options.queue_capacity = 2;
    options.high_watermark = 2;
    options.low_watermark = 1;
    options.policy = AdmissionPolicy::kShedNewest;
    AdmissionController admission(options);
    Offer(&admission, 1, 0.0);
    Offer(&admission, 2, 0.0);
    EXPECT_DOUBLE_EQ(load_state->Value(), 2.0);
    EXPECT_DOUBLE_EQ(depth->Value(), 2.0);
  }
  // A stale overload verdict must never outlive the run (/readyz reads
  // this gauge).
  EXPECT_DOUBLE_EQ(load_state->Value(), 0.0);
  EXPECT_DOUBLE_EQ(depth->Value(), 0.0);
}

TEST(AdmissionControllerTest, DefaultsAndNamesAreStable) {
  AdmissionController admission(AdmissionController::Options{});
  EXPECT_EQ(admission.options().queue_capacity, 8u);
  EXPECT_EQ(admission.options().high_watermark, 6u);
  EXPECT_EQ(admission.options().low_watermark, 2u);

  EXPECT_STREQ(LoadStateName(LoadState::kNormal), "normal");
  EXPECT_STREQ(LoadStateName(LoadState::kPressured), "pressured");
  EXPECT_STREQ(LoadStateName(LoadState::kOverloaded), "overloaded");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kBlock), "block");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kShedOldest),
               "shed_oldest");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kShedNewest),
               "shed_newest");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kDegrade), "degrade");
}

}  // namespace
}  // namespace cdpipe
