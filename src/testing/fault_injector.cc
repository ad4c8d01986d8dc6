#include "src/testing/fault_injector.h"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace testing {
namespace {

obs::Counter* InjectedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("fault.injected");
  return counter;
}

/// FNV-1a over the site name; mixed into the rule seed so two sites armed
/// with the same seed still draw independent streams.  Standard offset
/// basis, unlike Fnv1a64: the fault streams are seeded from this value.
uint64_t HashSite(const std::string& site) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

FaultRule FaultRule::Never() { return FaultRule{}; }

FaultRule FaultRule::Probability(double p, uint64_t seed) {
  FaultRule rule;
  rule.trigger = Trigger::kProbability;
  rule.probability = p;
  rule.seed = seed;
  return rule;
}

FaultRule FaultRule::EveryN(uint64_t n) {
  FaultRule rule;
  rule.trigger = Trigger::kEveryN;
  rule.n = n;
  return rule;
}

FaultRule FaultRule::FirstN(uint64_t n) {
  FaultRule rule;
  rule.trigger = Trigger::kFirstN;
  rule.n = n;
  return rule;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& site, FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState state;
  state.rng = Rng(rule.seed ^ HashSite(site));
  state.rule = std::move(rule);
  sites_[site] = std::move(state);
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::Fire(const char* site, FaultRule* rule) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  SiteState& state = it->second;
  ++state.stats.invocations;
  if (state.rule.max_triggers >= 0 &&
      state.stats.triggers >= state.rule.max_triggers) {
    return false;
  }
  bool fired = false;
  switch (state.rule.trigger) {
    case FaultRule::Trigger::kNever:
      break;
    case FaultRule::Trigger::kProbability:
      fired = state.rng.NextBernoulli(state.rule.probability);
      break;
    case FaultRule::Trigger::kEveryN:
      fired = state.rule.n > 0 &&
              static_cast<uint64_t>(state.stats.invocations) %
                      state.rule.n ==
                  0;
      break;
    case FaultRule::Trigger::kFirstN:
      fired = static_cast<uint64_t>(state.stats.invocations) <= state.rule.n;
      break;
  }
  if (!fired) return false;
  ++state.stats.triggers;
  *rule = state.rule;
  return true;
}

Status FaultInjector::Check(const char* site) {
  FaultRule rule;
  if (!Fire(site, &rule)) return Status::OK();
  InjectedCounter()->Increment();
  CDPIPE_LOG(Debug) << "fault injected at " << site << ": " << rule.message;
  if (rule.throws) throw std::runtime_error(rule.message);
  return Status(rule.code, rule.message + " (injected at " + site + ")");
}

bool FaultInjector::ShouldTrigger(const char* site) {
  FaultRule rule;
  if (!Fire(site, &rule)) return false;
  InjectedCounter()->Increment();
  CDPIPE_LOG(Debug) << "fault triggered at " << site << ": " << rule.message;
  return true;
}

void FaultInjector::MaybeDelay(const char* site) {
  FaultRule rule;
  if (!Fire(site, &rule)) return;
  InjectedCounter()->Increment();
  if (rule.delay_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(rule.delay_seconds));
  }
}

FaultSiteStats FaultInjector::StatsFor(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it != sites_.end() ? it->second.stats : FaultSiteStats{};
}

int64_t FaultInjector::TotalTriggers() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [site, state] : sites_) total += state.stats.triggers;
  return total;
}

ScopedFaultScript::ScopedFaultScript(std::vector<SiteRule> rules) {
  FaultInjector& injector = FaultInjector::Global();
  injector.DisarmAll();
  for (SiteRule& entry : rules) {
    injector.Arm(entry.site, std::move(entry.rule));
  }
  // An empty script still enables the injector: the "armed but inert"
  // control configuration.
  injector.set_enabled(true);
}

ScopedFaultScript::~ScopedFaultScript() {
  FaultInjector::Global().DisarmAll();
}

}  // namespace testing
}  // namespace cdpipe
