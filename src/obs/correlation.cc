#include "src/obs/correlation.h"

namespace cdpipe {
namespace obs {
namespace {

thread_local CorrelationId current_correlation;  // {0, -1} by default

}  // namespace

CorrelationScope::CorrelationScope(CorrelationId id)
    : previous_(current_correlation) {
  current_correlation = id;
}

CorrelationScope::~CorrelationScope() { current_correlation = previous_; }

CorrelationId CorrelationScope::Current() { return current_correlation; }

CorrelationId CorrelationScope::WithEntity(int64_t entity) {
  return CorrelationId{current_correlation.deployment, entity};
}

}  // namespace obs
}  // namespace cdpipe
