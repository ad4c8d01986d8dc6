#ifndef CDPIPE_OBS_EXPORTERS_H_
#define CDPIPE_OBS_EXPORTERS_H_

#include <string>
#include <string_view>

#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {

/// Converts an internal metric name ("chunk_store.sample_hits") to a legal
/// Prometheus metric name ("cdpipe_chunk_store_sample_hits").
std::string PrometheusName(const std::string& name);

/// Escapes `# HELP` text per the text exposition format: backslash becomes
/// `\\` and newline becomes `\n`.
std::string PrometheusEscapeHelp(const std::string& help);

/// Escapes `s` for the inside of a JSON string literal: a quote or
/// backslash gets a backslash, and a byte below 0x20 becomes `\u00XX`.
std::string JsonEscape(std::string_view s);

/// Prometheus text exposition format (version 0.0.4): one `# TYPE` line per
/// metric (preceded by `# HELP` when the registry has help text), cumulative
/// `_bucket{le="..."}` series plus `_sum`/`_count` for histograms.  Suitable
/// for a /metrics endpoint or a textfile collector.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_EXPORTERS_H_
