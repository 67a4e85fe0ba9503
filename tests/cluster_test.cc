#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <gtest/gtest.h>

#include "src/baselines/fifo_scheduler.h"
#include "src/common/error.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "tests/contended_workload.h"

namespace rush {
namespace {

JobSpec simple_job(const std::string& name, Seconds arrival, int maps, int reduces,
                   Seconds task_seconds, Seconds budget = 1000.0) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = arrival;
  spec.budget = budget;
  spec.priority = 1.0;
  spec.beta = 0.1;
  spec.utility_kind = "linear";
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  for (int r = 0; r < reduces; ++r) spec.tasks.push_back({task_seconds, true});
  return spec;
}

ClusterConfig quiet_config(int nodes, ContainerCount per_node) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(nodes, per_node);
  config.runtime_noise_sigma = 0.0;  // deterministic runtimes
  config.seed = 7;
  return config;
}

TEST(Cluster, RunsOneJobToCompletion) {
  FifoScheduler scheduler;
  EngineSimulation cluster(quiet_config(1, 2), scheduler);
  cluster.submit(simple_job("solo", 0.0, 4, 0, 10.0));
  const auto result = cluster.run();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.completed);
  // 4 tasks of 10s on 2 containers: two waves -> 20 s.
  EXPECT_DOUBLE_EQ(result.jobs[0].completion, 20.0);
  EXPECT_EQ(result.jobs[0].tasks, 4);
  EXPECT_EQ(result.assignments, 4);
}

TEST(Cluster, ReduceBarrierDelaysReduces) {
  FifoScheduler scheduler;
  EngineSimulation cluster(quiet_config(1, 4), scheduler);
  // 2 maps of 10s then 1 reduce of 5s.  With 4 containers the reduce could
  // start at 0 if the barrier were ignored; with the barrier it starts at 10.
  cluster.submit(simple_job("mr", 0.0, 2, 1, 10.0));
  const auto result = cluster.run();
  // Completion = 10 (maps) + 10 (reduce, same nominal runtime).
  EXPECT_DOUBLE_EQ(result.jobs[0].completion, 20.0);
}

TEST(Cluster, CapacityIsNeverExceeded) {
  FifoScheduler scheduler(/*exclusive=*/false);  // work-conserving packing
  EngineSimulation cluster(quiet_config(2, 2), scheduler);  // capacity 4
  for (int i = 0; i < 5; ++i) {
    cluster.submit(simple_job("j" + std::to_string(i), 0.0, 3, 0, 7.0));
  }
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  // 15 tasks of 7s on 4 containers: ceil(15/4)=4 waves -> 28 s.
  EXPECT_DOUBLE_EQ(result.makespan, 28.0);
}

TEST(Cluster, HeterogeneousNodesSlowTasksDown) {
  FifoScheduler scheduler;
  ClusterConfig config;
  config.nodes = {{1, 2.0}};  // single container, 2x slower
  config.runtime_noise_sigma = 0.0;
  EngineSimulation cluster(config, scheduler);
  cluster.submit(simple_job("slow", 0.0, 1, 0, 10.0));
  const auto result = cluster.run();
  EXPECT_DOUBLE_EQ(result.jobs[0].completion, 20.0);
}

TEST(Cluster, RuntimeNoiseIsDeterministicInSeed) {
  const auto run_once = [](std::uint64_t seed) {
    FifoScheduler scheduler;
    ClusterConfig config = quiet_config(1, 2);
    config.runtime_noise_sigma = 0.3;
    config.seed = seed;
    EngineSimulation cluster(config, scheduler);
    cluster.submit(simple_job("noisy", 0.0, 6, 1, 10.0));
    return cluster.run().jobs[0].completion;
  };
  EXPECT_DOUBLE_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

TEST(Cluster, ArrivalsGateExecution) {
  FifoScheduler scheduler;
  EngineSimulation cluster(quiet_config(1, 4), scheduler);
  cluster.submit(simple_job("late", 100.0, 2, 0, 5.0));
  const auto result = cluster.run();
  EXPECT_DOUBLE_EQ(result.jobs[0].completion, 105.0);
}

TEST(Cluster, UtilityRecordedAtCompletion) {
  FifoScheduler scheduler;
  EngineSimulation cluster(quiet_config(1, 1), scheduler);
  JobSpec spec = simple_job("u", 0.0, 2, 0, 10.0, /*budget=*/100.0);
  spec.utility_kind = "linear";
  spec.priority = 5.0;
  spec.beta = 0.1;
  cluster.submit(std::move(spec));
  const auto result = cluster.run();
  // Completion at 20, utility = 0.1*(100-20)+5 = 13.
  EXPECT_NEAR(result.jobs[0].utility, 13.0, 1e-9);
  EXPECT_NEAR(result.jobs[0].latency(), -80.0, 1e-9);
  EXPECT_NEAR(result.jobs[0].best_possible_utility, 15.0, 1e-9);
}

TEST(Cluster, MaxTimeAbandonsUnfinishedJobs) {
  FifoScheduler scheduler;
  ClusterConfig config = quiet_config(1, 1);
  config.max_time = 15.0;
  EngineSimulation cluster(config, scheduler);
  cluster.submit(simple_job("long", 0.0, 10, 0, 10.0));
  const auto result = cluster.run();
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.jobs[0].completion, kNever);
  EXPECT_DOUBLE_EQ(result.jobs[0].utility, 0.0);
}

TEST(Cluster, SubmissionValidation) {
  FifoScheduler scheduler;
  EngineSimulation cluster(quiet_config(1, 1), scheduler);
  JobSpec empty;
  empty.name = "empty";
  EXPECT_THROW(cluster.submit(empty), InvalidInput);
  JobSpec bad = simple_job("bad", -1.0, 1, 0, 5.0);
  EXPECT_THROW(cluster.submit(bad), InvalidInput);
  ClusterConfig no_nodes;
  EXPECT_THROW(EngineSimulation(no_nodes, scheduler), InvalidInput);
}

TEST(Cluster, SubmissionRejectsTaskRuntimesThatAreNotPositive) {
  // Accepted, a zero runtime would run as a 0-second task, a negative one
  // would throw from the event queue mid-run, and NaN would throw only when
  // the job arrives.
  for (const Seconds runtime : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN()}) {
    FifoScheduler scheduler;
    EngineSimulation cluster(quiet_config(1, 2), scheduler);
    JobSpec spec = simple_job("j", 0.0, 1, 0, 10.0);
    spec.tasks.push_back({runtime, false});
    EXPECT_THROW(cluster.submit(spec), InvalidInput) << "runtime " << runtime;
  }
}

TEST(Cluster, SubmissionValidatesTheJobConfiguration) {
  // Rejected at submit(), not when the arrival event fires mid-run.
  FifoScheduler scheduler;
  EngineSimulation cluster(quiet_config(1, 1), scheduler);
  JobSpec spec = simple_job("late", 50.0, 1, 0, 10.0);
  spec.utility_kind = "cubic";
  EXPECT_THROW(cluster.submit(spec), InvalidInput);
  spec.utility_kind = "linear";
  spec.budget = -1.0;
  EXPECT_THROW(cluster.submit(spec), InvalidInput);
}

TEST(Cluster, ConfigRejectsFailureProbabilitiesOutsideUnitInterval) {
  // Accepted, p >= 1 would fail every attempt until max_time, and a
  // negative or NaN p would silently mean 0.
  FifoScheduler scheduler;
  for (const double p : {1.0, 2.0, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    ClusterConfig config = quiet_config(1, 2);
    config.task_failure_probability = p;
    EXPECT_THROW(EngineSimulation(config, scheduler), InvalidInput) << "p " << p;
  }
  ClusterConfig config = quiet_config(1, 2);
  config.task_failure_probability = 0.99;
  EXPECT_NO_THROW(EngineSimulation(config, scheduler));
  ClusterConfig bad_node = quiet_config(1, 2);
  bad_node.nodes.push_back({0, 1.0});
  EXPECT_THROW(EngineSimulation(bad_node, scheduler), InvalidInput);
  bad_node.nodes.back() = {2, 0.0};
  EXPECT_THROW(EngineSimulation(bad_node, scheduler), InvalidInput);
}

// Every view handed to a hook or a wave shows exactly the jobs the
// scheduler has seen arrive and not yet finish, in ascending id, with
// counts consistent with the hooks so far: the invariants the engine's
// per-call view build must keep.  Run over the golden workloads (ids
// arriving out of order, failures on about half the seeds, speculation off
// and on) under all five schedulers.
TEST(Cluster, SchedulerSeesOnlyObservables) {
  class ProbeScheduler final : public Scheduler {
   public:
    explicit ProbeScheduler(Scheduler& inner) : inner_(inner) {}
    std::string name() const override { return inner_.name(); }
    std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
      check(view);
      return inner_.assign_containers(view, count);
    }
    void on_job_arrival(const ClusterView& view, JobId job) override {
      completed_.emplace(job, 0);
      check(view);
      inner_.on_job_arrival(view, job);
    }
    void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                          bool is_reduce) override {
      ++completed_.at(job);
      check(view);
      inner_.on_task_finished(view, job, runtime, is_reduce);
    }
    void on_task_failed(const ClusterView& view, JobId job, Seconds wasted) override {
      check(view);
      inner_.on_task_failed(view, job, wasted);
    }
    void on_job_finished(const ClusterView& view, JobId job) override {
      check(view);
      inner_.on_job_finished(view, job);
    }
    long views_checked() const { return views_checked_; }

    std::map<JobId, int> total_tasks;  // submitted jobs -> task count

   private:
    void check(const ClusterView& view) {
      ++views_checked_;
      std::vector<JobId> ids;
      for (const JobView& j : view.jobs) ids.push_back(j.id);
      EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()), ids.end())
          << "slot ids must strictly ascend";
      std::vector<JobId> unfinished;  // ascending: completed_ is ordered by id
      for (const auto& [id, completed] : completed_) {
        if (completed < total_tasks.at(id)) unfinished.push_back(id);
      }
      ASSERT_EQ(ids, unfinished) << "slots must be the arrived, unfinished jobs";
      int running = 0;
      for (const JobView& j : view.jobs) {
        running += j.running_tasks;
        EXPECT_EQ(j.total_tasks, total_tasks.at(j.id));
        EXPECT_EQ(j.completed_tasks, completed_.at(j.id));
        EXPECT_EQ(j.remaining_maps + j.remaining_reduces, j.total_tasks - j.completed_tasks);
        EXPECT_GE(j.dispatchable_tasks, 0);
      }
      EXPECT_EQ(running, view.capacity - view.free_containers);
    }

    Scheduler& inner_;
    std::map<JobId, int> completed_;  // arrived jobs -> completions seen
    long views_checked_ = 0;
  };

  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (const char* name : {"RUSH", "EDF", "FIFO", "RRH", "Fair"}) {
      for (const bool speculation : {false, true}) {
        SCOPED_TRACE(std::string(name) + "/spec=" + (speculation ? "on" : "off") +
                     "/seed=" + std::to_string(seed));
        const auto inner = make_named_scheduler(name);
        ProbeScheduler probe(*inner);
        EngineSimulation simulation(contended_config(seed, speculation), probe);
        for (const JobSpec& spec : random_workload(seed)) {
          probe.total_tasks[simulation.submit(spec)] = spec.task_count();
        }
        EXPECT_TRUE(simulation.run().completed);
        EXPECT_GT(probe.views_checked(), 0);
      }
    }
  }
}

TEST(Cluster, PaperTestbedShape) {
  const auto nodes = paper_testbed_nodes();
  ContainerCount total = 0;
  for (const Node& n : nodes) total += n.containers;
  EXPECT_EQ(total, 48);  // 48 vCPUs in the paper's cluster
  EXPECT_EQ(nodes.size(), 6u);
}

}  // namespace
}  // namespace rush
