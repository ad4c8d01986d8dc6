#include "src/core/report.h"

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

DeploymentReport MakeReport(size_t points) {
  DeploymentReport report;
  report.strategy = "test-strategy";
  report.metric_name = "misclassification";
  for (size_t i = 0; i < points; ++i) {
    DeploymentReport::PointRow row;
    row.chunk_index = static_cast<int64_t>(i);
    row.observations = static_cast<int64_t>((i + 1) * 10);
    row.cumulative_error = 0.5 / (i + 1);
    row.windowed_error = 0.4 / (i + 1);
    row.cumulative_seconds = 0.1 * (i + 1);
    row.cumulative_work = static_cast<int64_t>((i + 1) * 100);
    report.curve.push_back(row);
  }
  report.final_error = report.curve.empty() ? 0.0
                                            : report.curve.back().cumulative_error;
  return report;
}

TEST(ReportTest, SampledCurveKeepsEndpoints) {
  DeploymentReport report = MakeReport(100);
  auto sampled = report.SampledCurve(7);
  ASSERT_EQ(sampled.size(), 7u);
  EXPECT_EQ(sampled.front().chunk_index, 0);
  EXPECT_EQ(sampled.back().chunk_index, 99);
  // Strictly increasing chunk indices.
  for (size_t i = 1; i < sampled.size(); ++i) {
    EXPECT_GT(sampled[i].chunk_index, sampled[i - 1].chunk_index);
  }
}

TEST(ReportTest, SampledCurveShortCurvePassesThrough) {
  DeploymentReport report = MakeReport(3);
  EXPECT_EQ(report.SampledCurve(10).size(), 3u);
  EXPECT_EQ(report.SampledCurve(0).size(), 3u);  // 0 = no downsampling
}

TEST(ReportTest, SampledCurveExactCount) {
  DeploymentReport report = MakeReport(10);
  EXPECT_EQ(report.SampledCurve(10).size(), 10u);
}

TEST(ReportTest, SummaryMentionsStrategyAndMetric) {
  DeploymentReport report = MakeReport(4);
  report.metrics.counters.push_back({"proactive.iterations", 7, ""});
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("test-strategy"), std::string::npos);
  EXPECT_NE(summary.find("misclassification"), std::string::npos);
  EXPECT_NE(summary.find("proactive=7"), std::string::npos);
}

}  // namespace
}  // namespace cdpipe
