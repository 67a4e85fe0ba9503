#include "src/metrics/trace.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

#include "src/baselines/fifo_scheduler.h"
#include "src/common/error.h"
#include "src/engine/simulation.h"

namespace rush {
namespace {

JobSpec simple_job(const std::string& name, Seconds arrival, int maps, int reduces,
                   Seconds task_seconds) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = arrival;
  spec.budget = 1e4;
  spec.utility_kind = "linear";
  spec.beta = 0.001;
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  for (int r = 0; r < reduces; ++r) spec.tasks.push_back({task_seconds, true});
  return spec;
}

TEST(Trace, RecordsTheFullLifecycle) {
  FifoScheduler scheduler(false);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, 2);
  config.runtime_noise_sigma = 0.0;
  EngineSimulation cluster(config, scheduler);
  TraceRecorder trace;
  cluster.set_observer(&trace);
  cluster.submit(simple_job("traced", 5.0, 4, 1, 10.0));
  const auto result = cluster.run();
  ASSERT_TRUE(result.completed);

  EXPECT_EQ(trace.count(TraceKind::kJobArrival), 1u);
  EXPECT_EQ(trace.count(TraceKind::kTaskStart), 5u);
  EXPECT_EQ(trace.count(TraceKind::kTaskFinish), 5u);
  EXPECT_EQ(trace.count(TraceKind::kTaskFailure), 0u);
  EXPECT_EQ(trace.count(TraceKind::kJobFinish), 1u);
  // 5 tasks of 10 s of busy time.
  EXPECT_NEAR(trace.busy_seconds(), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(trace.wasted_seconds(), 0.0);
}

TEST(Trace, EventsAreTimeOrdered) {
  FifoScheduler scheduler(false);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, 3);
  config.runtime_noise_sigma = 0.3;
  config.seed = 4;
  EngineSimulation cluster(config, scheduler);
  TraceRecorder trace;
  cluster.set_observer(&trace);
  cluster.submit(simple_job("a", 0.0, 6, 1, 8.0));
  cluster.submit(simple_job("b", 10.0, 4, 0, 8.0));
  cluster.run();
  Seconds prev = 0.0;
  for (const TraceEvent& e : trace.events()) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
  EXPECT_EQ(trace.count(TraceKind::kJobFinish), 2u);
}

TEST(Trace, CapturesFailures) {
  FifoScheduler scheduler(false);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, 2);
  config.task_failure_probability = 0.3;
  config.seed = 9;
  EngineSimulation cluster(config, scheduler);
  TraceRecorder trace;
  cluster.set_observer(&trace);
  cluster.submit(simple_job("flaky", 0.0, 20, 1, 5.0));
  const auto result = cluster.run();
  EXPECT_EQ(trace.count(TraceKind::kTaskFailure),
            static_cast<std::size_t>(result.task_failures));
  EXPECT_GT(trace.wasted_seconds(), 0.0);
  // Starts = successful finishes + failures.
  EXPECT_EQ(trace.count(TraceKind::kTaskStart),
            trace.count(TraceKind::kTaskFinish) + trace.count(TraceKind::kTaskFailure));
}

TEST(Trace, UtilizationIsAFraction) {
  FifoScheduler scheduler(false);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, 4);
  config.runtime_noise_sigma = 0.1;
  EngineSimulation cluster(config, scheduler);
  TraceRecorder trace;
  cluster.set_observer(&trace);
  cluster.submit(simple_job("u", 0.0, 12, 2, 10.0));
  cluster.run();
  const double u = trace.utilization(4);
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0 + 1e-9);
  EXPECT_THROW(trace.utilization(0), InvalidInput);
}

TEST(Trace, EmptyRecorderUtilizationIsZero) {
  TraceRecorder trace;
  EXPECT_DOUBLE_EQ(trace.utilization(4), 0.0);
}

// Property: replaying the trace, the number of concurrently running
// attempts never exceeds the cluster capacity — for any scheduler, with
// failures and speculation enabled.
class CapacityInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CapacityInvariantTest, ConcurrencyNeverExceedsCapacity) {
  FifoScheduler scheduler(false);
  ClusterConfig config;
  config.nodes = {{3, 1.0}, {2, 2.0}};  // capacity 5
  config.runtime_noise_sigma = 0.3;
  config.task_failure_probability = 0.15;
  config.enable_speculation = true;
  config.seed = GetParam();
  EngineSimulation cluster(config, scheduler);
  TraceRecorder trace;
  cluster.set_observer(&trace);
  Rng rng(GetParam());
  for (int j = 0; j < 6; ++j) {
    JobSpec spec;
    spec.name = "p" + std::to_string(j);
    spec.arrival = rng.uniform(0.0, 60.0);
    spec.budget = 1e5;
    spec.utility_kind = "linear";
    spec.beta = 0.001;
    const int maps = 3 + static_cast<int>(rng.uniform_int(0, 8));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back({rng.uniform(4.0, 20.0), false});
    }
    spec.tasks.push_back({rng.uniform(4.0, 20.0), true});
    cluster.submit(std::move(spec));
  }
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);

  // Replay: starts increment, finishes/failures decrement.  Kills free the
  // container silently, so track per-container occupancy instead of a bare
  // counter: a container must never host two overlapping attempts.
  std::vector<int> busy(5, 0);
  int concurrent = 0;
  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case TraceKind::kTaskStart:
        ASSERT_GE(e.container, 0);
        ASSERT_LT(e.container, 5);
        ++busy[static_cast<std::size_t>(e.container)];
        EXPECT_LE(busy[static_cast<std::size_t>(e.container)], 1)
            << "container " << e.container << " double-booked at t=" << e.time;
        ++concurrent;
        EXPECT_LE(concurrent, 5);
        break;
      case TraceKind::kTaskFinish:
      case TraceKind::kTaskFailure:
      case TraceKind::kTaskKilled:
        --busy[static_cast<std::size_t>(e.container)];
        --concurrent;
        break;
      default:
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapacityInvariantTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Trace, WritesCsv) {
  FifoScheduler scheduler(false);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, 1);
  config.runtime_noise_sigma = 0.0;
  EngineSimulation cluster(config, scheduler);
  TraceRecorder trace;
  cluster.set_observer(&trace);
  cluster.submit(simple_job("csv", 0.0, 2, 0, 3.0));
  cluster.run();

  const std::string path = "/tmp/rush_trace_test.csv";
  trace.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time,kind,job,container,value,label");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, trace.events().size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rush
