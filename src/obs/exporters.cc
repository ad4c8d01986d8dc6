#include "src/obs/exporters.h"

#include <cctype>

#include "src/common/string_util.h"

namespace cdpipe {
namespace obs {
namespace {

/// %g loses no precision we care about and keeps the output compact; +Inf
/// needs special-casing for Prometheus.
std::string FormatDouble(double v) { return StrFormat("%.9g", v); }

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = "cdpipe_";
  for (char c : name) {
    const bool legal = std::isalnum(static_cast<unsigned char>(c)) ||
                       c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

std::string PrometheusEscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

void AppendHelp(const std::string& prom_name, const std::string& help,
                std::string* out) {
  if (help.empty()) return;
  *out += "# HELP " + prom_name + " " + PrometheusEscapeHelp(help) + "\n";
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = PrometheusName(c.name);
    AppendHelp(name, c.help, &out);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + StrFormat("%lld", static_cast<long long>(c.value)) +
           "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = PrometheusName(g.name);
    AppendHelp(name, g.help, &out);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + FormatDouble(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = PrometheusName(h.name);
    AppendHelp(name, h.help, &out);
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.hist.upper_bounds.size(); ++i) {
      cumulative += h.hist.counts[i];
      out += name + "_bucket{le=\"" + FormatDouble(h.hist.upper_bounds[i]) +
             "\"} " + StrFormat("%llu", static_cast<unsigned long long>(
                                            cumulative)) +
             "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " +
           StrFormat("%llu",
                     static_cast<unsigned long long>(h.hist.total_count)) +
           "\n";
    out += name + "_sum " + FormatDouble(h.hist.sum) + "\n";
    out += name + "_count " +
           StrFormat("%llu",
                     static_cast<unsigned long long>(h.hist.total_count)) +
           "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace cdpipe
