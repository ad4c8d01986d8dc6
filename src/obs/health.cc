#include "src/obs/health.h"

#include <algorithm>
#include <chrono>

#include "src/common/string_util.h"
#include "src/obs/decision.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace obs {
namespace {

Gauge* ReadyGauge() {
  static Gauge* gauge = MetricsRegistry::Global().GetGauge("obs.ready");
  return gauge;
}

}  // namespace

void Heartbeat::Beat() {
  last_beat_us_.store(Tracer::NowMicros(), std::memory_order_relaxed);
  beats_.fetch_add(1, std::memory_order_relaxed);
}

void Heartbeat::BeginWork() {
  busy_.fetch_add(1, std::memory_order_relaxed);
  Beat();
}

void Heartbeat::EndWork() {
  Beat();
  busy_.fetch_sub(1, std::memory_order_relaxed);
}

HealthRegistry& HealthRegistry::Global() {
  static HealthRegistry* registry = new HealthRegistry();
  return *registry;
}

Heartbeat* HealthRegistry::GetHeartbeat(const std::string& subsystem) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = heartbeats_[subsystem];
  if (slot == nullptr) slot = std::make_unique<Heartbeat>();
  return slot.get();
}

std::vector<SubsystemHealth> HealthRegistry::Snapshot(
    double stall_deadline_seconds, int64_t now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SubsystemHealth> out;
  out.reserve(heartbeats_.size());
  for (const auto& [name, heartbeat] : heartbeats_) {
    SubsystemHealth health;
    health.name = name;
    health.last_beat_us = heartbeat->last_beat_us();
    health.beats = heartbeat->beats();
    health.busy = heartbeat->busy();
    const bool beat = health.last_beat_us != -1;
    if (beat) {
      health.age_seconds =
          static_cast<double>(now_us - health.last_beat_us) * 1e-6;
    }
    health.stalled =
        health.busy > 0 && beat && health.age_seconds > stall_deadline_seconds;
    out.push_back(std::move(health));
  }
  return out;
}

std::string HealthToJson(const std::vector<SubsystemHealth>& subsystems,
                         bool ready) {
  std::string out =
      std::string("{\"ready\":") + (ready ? "true" : "false") +
      ",\"subsystems\":[";
  for (size_t i = 0; i < subsystems.size(); ++i) {
    const SubsystemHealth& s = subsystems[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"name\":\"%s\",\"busy\":%lld,\"beats\":%llu,"
        "\"age_seconds\":%.6f,\"stalled\":%s}",
        s.name.c_str(), static_cast<long long>(s.busy),
        static_cast<unsigned long long>(s.beats), s.age_seconds,
        s.stalled ? "true" : "false");
  }
  out += "]}";
  return out;
}

std::string NotReadyReason(const std::vector<SubsystemHealth>& subsystems,
                           bool ingest_overloaded) {
  std::string out = "not ready:";
  bool first = true;
  for (const SubsystemHealth& s : subsystems) {
    if (!s.stalled) continue;
    out += StrFormat("%s stalled=%s (busy=%lld, silent %.1fs)",
                     first ? "" : ";", s.name.c_str(),
                     static_cast<long long>(s.busy), s.age_seconds);
    first = false;
  }
  if (ingest_overloaded) {
    out += StrFormat("%s ingest overloaded", first ? "" : ";");
    first = false;
  }
  if (first) out += " unknown";
  out += '\n';
  return out;
}

Watchdog::Watchdog() : Watchdog(Options()) {}

Watchdog::Watchdog(Options options) : options_(options) {
  if (options_.health == nullptr) options_.health = &HealthRegistry::Global();
  if (options_.journal == nullptr) options_.journal = &EventJournal::Global();
  ReadyGauge()->Set(1.0);
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  thread_ = std::thread(&Watchdog::Loop, this);
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  wake_.notify_all();
  thread_.join();
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    lock.unlock();
    PollOnce();
    lock.lock();
    wake_.wait_for(lock,
                   std::chrono::duration<double>(
                       options_.poll_interval_seconds),
                   [this] { return !running_; });
  }
}

void Watchdog::PollOnce() {
  const std::vector<SubsystemHealth> snapshot = options_.health->Snapshot(
      options_.stall_deadline_seconds, Tracer::NowMicros());
  std::lock_guard<std::mutex> lock(mu_);
  for (const SubsystemHealth& subsystem : snapshot) {
    const bool was_stalled = stalled_.count(subsystem.name) > 0;
    if (subsystem.stalled && !was_stalled) {
      stalled_.insert(subsystem.name);
      Record(*options_.journal, Decision::kStall, CorrelationId{},
             subsystem.name);
    } else if (!subsystem.stalled && was_stalled) {
      stalled_.erase(subsystem.name);
      Record(*options_.journal, Decision::kRecover, CorrelationId{},
             subsystem.name);
    }
  }
  const bool ready = stalled_.empty();
  ready_.store(ready, std::memory_order_relaxed);
  ReadyGauge()->Set(ready ? 1.0 : 0.0);
}

}  // namespace obs
}  // namespace cdpipe
