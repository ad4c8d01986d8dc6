#include "src/obs/event_journal.h"

#include <cstring>

#include "src/common/string_util.h"
#include "src/obs/decision.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace obs {

EventJournal::EventJournal(size_t capacity)
    : EventRing(capacity,
                MetricsRegistry::Global().GetCounter("obs.journal_dropped")) {}

EventJournal& EventJournal::Global() {
  static EventJournal* journal = new EventJournal();
  return *journal;
}

void EventJournal::Append(Decision decision, CorrelationId corr,
                          const char* detail) {
  JournalEvent event;
  event.decision = decision;
  event.timestamp_us = Tracer::NowMicros();
  event.corr = corr;
  if (detail == nullptr) detail = "";
  std::strncpy(event.detail, detail, sizeof(event.detail) - 1);
  EventRing::Append(event);
}

std::string EventJournal::TailToJson(size_t max_events) const {
  const std::vector<JournalEvent> events = Tail(max_events);
  std::string out = StrFormat(
      "{\"appended\":%llu,\"dropped\":%llu,\"capacity\":%zu,\"events\":[",
      static_cast<unsigned long long>(TotalAppended()),
      static_cast<unsigned long long>(TotalDropped()), capacity());
  for (size_t i = 0; i < events.size(); ++i) {
    const JournalEvent& e = events[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"kind\":\"%s\",\"t_us\":%lld,\"deployment\":%u,\"entity\":%lld,"
        "\"producer\":%u,\"seq\":%llu,\"detail\":\"%s\"}",
        SpecOf(e.decision).kind, static_cast<long long>(e.timestamp_us),
        e.corr.deployment, static_cast<long long>(e.corr.entity), e.producer,
        static_cast<unsigned long long>(e.seq), JsonEscape(e.detail).c_str());
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace cdpipe
