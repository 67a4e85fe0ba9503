#include "src/metrics/gantt.h"

#include <gtest/gtest.h>

#include "src/baselines/fifo_scheduler.h"
#include "src/common/error.h"
#include "src/engine/simulation.h"

namespace rush {
namespace {

TraceRecorder run_traced(int maps, Seconds task_seconds, ContainerCount containers) {
  FifoScheduler scheduler(false);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, containers);
  config.runtime_noise_sigma = 0.0;
  EngineSimulation cluster(config, scheduler);
  TraceRecorder trace;
  cluster.set_observer(&trace);
  JobSpec spec;
  spec.name = "g";
  spec.budget = 1e4;
  spec.utility_kind = "constant";
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  cluster.submit(std::move(spec));
  cluster.run();
  return trace;
}

TEST(Gantt, RendersOneRowPerContainer) {
  const TraceRecorder trace = run_traced(6, 10.0, 3);
  const std::string chart = render_gantt(trace, 3);
  EXPECT_NE(chart.find("c0"), std::string::npos);
  EXPECT_NE(chart.find("c1"), std::string::npos);
  EXPECT_NE(chart.find("c2"), std::string::npos);
  EXPECT_EQ(chart.find("c3"), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
}

TEST(Gantt, FullyBusyClusterShowsNoIdleCells) {
  // 6 tasks of equal length on 3 containers: two full waves, no gaps.
  const TraceRecorder trace = run_traced(6, 10.0, 3);
  const std::string chart = render_gantt(trace, 3);
  // Count '.' only inside the row bodies (between the '|' delimiters).
  std::size_t idle = 0;
  bool inside = false;
  for (char ch : chart) {
    if (ch == '|') inside = !inside;
    if (inside && ch == '.') ++idle;
  }
  EXPECT_EQ(idle, 0u);
}

TEST(Gantt, JobGlyphsIdentifyJobs) {
  const TraceRecorder trace = run_traced(4, 5.0, 2);
  const std::string chart = render_gantt(trace, 2);
  EXPECT_NE(chart.find('0'), std::string::npos);  // job 0's glyph
}

TEST(Gantt, WidthOptionControlsColumns) {
  const TraceRecorder trace = run_traced(4, 5.0, 2);
  GanttOptions options;
  options.width = 20;
  const std::string chart = render_gantt(trace, 2, options);
  // Each row is "cN |<width cells>|": find a row and measure.
  const auto row_start = chart.find("c0");
  ASSERT_NE(row_start, std::string::npos);
  const auto bar_open = chart.find('|', row_start);
  const auto bar_close = chart.find('|', bar_open + 1);
  EXPECT_EQ(bar_close - bar_open - 1, 20u);
}

TEST(Gantt, MaxContainersLimitsRows) {
  const TraceRecorder trace = run_traced(8, 5.0, 4);
  GanttOptions options;
  options.max_containers = 2;
  const std::string chart = render_gantt(trace, 4, options);
  EXPECT_NE(chart.find("c1"), std::string::npos);
  EXPECT_EQ(chart.find("c2"), std::string::npos);
}

TEST(Gantt, EmptyTraceAndValidation) {
  TraceRecorder empty;
  EXPECT_EQ(render_gantt(empty, 4), "(empty trace)\n");
  EXPECT_THROW(render_gantt(empty, 0), InvalidInput);
  GanttOptions bad;
  bad.width = 0;
  EXPECT_THROW(render_gantt(empty, 4, bad), InvalidInput);
}

}  // namespace
}  // namespace rush
