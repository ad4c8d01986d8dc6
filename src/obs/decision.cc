#include "src/obs/decision.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {
namespace {

constexpr std::optional<LogLevel> kNotLogged = std::nullopt;
constexpr std::optional<LogLevel> kInfo = LogLevel::kInfo;
constexpr std::optional<LogLevel> kWarning = LogLevel::kWarning;
constexpr std::optional<LogLevel> kError = LogLevel::kError;

constexpr DecisionSpec kSpecs[] = {
#define CDPIPE_OBS_DECISION_SPEC(name, kind, detail, counter, help, level) \
  {kind, detail, counter, help, k##level},
    CDPIPE_OBS_DECISIONS(CDPIPE_OBS_DECISION_SPEC)
#undef CDPIPE_OBS_DECISION_SPEC
};

constexpr size_t kCount = static_cast<size_t>(Decision::kNumDecisions);

/// Each decision's counter, registered once so a record never touches the
/// registry.
const std::array<Counter*, kCount>& DecisionCounters() {
  static const std::array<Counter*, kCount> counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    std::array<Counter*, kCount> out{};
    for (size_t i = 0; i < kCount; ++i) {
      if (kSpecs[i].counter != nullptr) {
        out[i] = registry.GetCounter(kSpecs[i].counter, kSpecs[i].help);
      }
    }
    return out;
  }();
  return counters;
}

// Every decision counter exists, at zero, from startup: /metrics lists the
// whole vocabulary before the first decision is taken.
[[maybe_unused]] const bool kCountersRegistered = (DecisionCounters(), true);

/// Writes the declared detail, a space and `why` (either may be empty)
/// into `out`, truncated to the journal's fixed detail storage.
const char* JoinDetail(const char* fixed, std::string_view why,
                       char (&out)[sizeof(JournalEvent::detail)]) {
  if (why.empty()) return fixed;
  size_t length = std::min(std::strlen(fixed), sizeof(out) - 1);
  std::memcpy(out, fixed, length);
  if (length > 0 && length < sizeof(out) - 1) out[length++] = ' ';
  const size_t tail = std::min(why.size(), sizeof(out) - 1 - length);
  std::memcpy(out + length, why.data(), tail);
  out[length + tail] = '\0';
  return out;
}

}  // namespace

const DecisionSpec& SpecOf(Decision decision) {
  return kSpecs[static_cast<size_t>(decision)];
}

void Record(EventJournal& journal, Decision decision, CorrelationId corr,
            std::string_view why, const Status& cause,
            std::source_location where) {
  const size_t index = static_cast<size_t>(decision);
  const DecisionSpec& spec = kSpecs[index];
  char buffer[sizeof(JournalEvent::detail)];
  const char* detail = JoinDetail(spec.detail, why, buffer);
  journal.Append(decision, corr, detail);
  if (Counter* counter = DecisionCounters()[index]) {
    counter->Increment();
  }
  if (!spec.level.has_value() ||
      static_cast<int>(*spec.level) < static_cast<int>(GetLogLevel())) {
    return;
  }
  internal::LogMessage line(*spec.level, where.file_name(),
                            static_cast<int>(where.line()));
  line << spec.kind;
  if (detail[0] != '\0') line << ' ' << detail;
  if (corr.deployment != 0) line << " deployment=" << corr.deployment;
  if (corr.entity >= 0) line << " entity=" << corr.entity;
  if (!cause.ok()) line << ": " << cause.ToString();
}

}  // namespace obs
}  // namespace cdpipe
