// Task failure injection (the paper's stated future work, §VII): failed
// attempts waste time, release their container and re-queue the task.

#include <gtest/gtest.h>

#include <map>

#include "src/baselines/fifo_scheduler.h"
#include "src/core/rush_scheduler.h"
#include "src/engine/simulation.h"

namespace rush {
namespace {

JobSpec simple_job(const std::string& name, int maps, int reduces, Seconds task_seconds,
                   Seconds budget = 1e5) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = 0.0;
  spec.budget = budget;
  spec.priority = 2.0;
  spec.beta = 0.01;
  spec.utility_kind = "linear";
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  for (int r = 0; r < reduces; ++r) spec.tasks.push_back({task_seconds, true});
  return spec;
}

/// Work-conserving grants in job order: each job takes containers until its
/// dispatchable tasks run out.
std::vector<JobId> first_come_grants(const ClusterView& view, int count) {
  std::vector<JobId> grants;
  for (const JobView& j : view.jobs) {
    for (int t = 0; t < j.dispatchable_tasks && static_cast<int>(grants.size()) < count;
         ++t) {
      grants.push_back(j.id);
    }
  }
  return grants;
}

ClusterConfig failing_config(double p, std::uint64_t seed = 5) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, 4);
  config.runtime_noise_sigma = 0.1;
  config.task_failure_probability = p;
  config.seed = seed;
  return config;
}

TEST(FailureInjection, JobsStillCompleteUnderFailures) {
  FifoScheduler scheduler(false);
  EngineSimulation cluster(failing_config(0.3), scheduler);
  cluster.submit(simple_job("resilient", 20, 2, 10.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.task_failures, 0);
  EXPECT_NE(result.jobs[0].completion, kNever);
}

TEST(FailureInjection, ZeroProbabilityMeansZeroFailures) {
  FifoScheduler scheduler(false);
  EngineSimulation cluster(failing_config(0.0), scheduler);
  cluster.submit(simple_job("clean", 10, 1, 5.0));
  const auto result = cluster.run();
  EXPECT_EQ(result.task_failures, 0);
}

TEST(FailureInjection, FailuresDelayCompletion) {
  const auto completion_with = [](double p) {
    FifoScheduler scheduler(false);
    EngineSimulation cluster(failing_config(p, 11), scheduler);
    cluster.submit(simple_job("timed", 40, 2, 10.0));
    return cluster.run().jobs[0].completion;
  };
  // Average over the stochastic failure draws by comparing aggressive vs
  // none on the same seed: re-execution strictly adds work.
  EXPECT_GT(completion_with(0.4), completion_with(0.0));
}

TEST(FailureInjection, FailedAttemptsAreNotRuntimeSamples) {
  class SampleCounter final : public Scheduler {
   public:
    std::string name() const override { return "counter"; }
    std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
      for (const JobView& j : view.jobs) {
        // Runtime samples (on_task_finished calls) must equal completed
        // tasks exactly, never counting failures.
        EXPECT_EQ(samples_[j.id], j.completed_tasks);
      }
      return first_come_grants(view, count);
    }
    void on_task_finished(const ClusterView&, JobId job, Seconds, bool) override {
      ++samples_[job];
    }
    void on_task_failed(const ClusterView&, JobId, Seconds) override { ++failures_seen; }
    int failures_seen = 0;

   private:
    std::map<JobId, int> samples_;
  };
  SampleCounter scheduler;
  EngineSimulation cluster(failing_config(0.3, 13), scheduler);
  cluster.submit(simple_job("sampled", 30, 1, 8.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(scheduler.failures_seen, result.task_failures);
  EXPECT_GT(scheduler.failures_seen, 0);
}

TEST(FailureInjection, ViewExposesFailureCounts) {
  class FailureProbe final : public Scheduler {
   public:
    std::string name() const override { return "probe"; }
    std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
      for (const JobView& j : view.jobs) {
        max_failures = std::max(max_failures, j.failed_attempts);
      }
      return first_come_grants(view, count);
    }
    int max_failures = 0;
  };
  FailureProbe scheduler;
  EngineSimulation cluster(failing_config(0.4, 17), scheduler);
  cluster.submit(simple_job("watched", 25, 0, 6.0));
  cluster.run();
  EXPECT_GT(scheduler.max_failures, 0);
}

TEST(FailureInjection, RushReplansAndDrainsUnderFailures) {
  RushConfig config;
  config.prior.mean_runtime = 10.0;
  config.prior.stddev_runtime = 4.0;
  RushScheduler scheduler(config);
  EngineSimulation cluster(failing_config(0.25, 19), scheduler);
  cluster.submit(simple_job("a", 15, 1, 10.0, 600.0));
  cluster.submit(simple_job("b", 15, 1, 10.0, 900.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.task_failures, 0);
  for (const auto& job : result.jobs) EXPECT_NE(job.completion, kNever);
}

TEST(FailureInjection, DeterministicInSeed) {
  const auto run_once = [] {
    FifoScheduler scheduler(false);
    EngineSimulation cluster(failing_config(0.3, 23), scheduler);
    cluster.submit(simple_job("det", 20, 1, 10.0));
    const auto result = cluster.run();
    return std::make_pair(result.jobs[0].completion, result.task_failures);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace rush
