#include <algorithm>
#include <limits>
#include <gtest/gtest.h>

#include "src/baselines/fifo_scheduler.h"
#include "src/common/error.h"
#include "src/engine/simulation.h"

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

TEST(Cluster, SchedulerSeesOnlyObservables) {
  // The view must expose sample runtimes of completed tasks and hide
  // nominal runtimes; verify counts evolve consistently.
  class ProbeScheduler final : public Scheduler {
   public:
    std::string name() const override { return "probe"; }
    std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
      std::vector<JobId> grants;
      for (const JobView& j : view.jobs) {
        EXPECT_EQ(j.total_tasks, 3);
        EXPECT_GE(j.dispatchable_tasks, 0);
        EXPECT_EQ(static_cast<int>(j.runtime_samples->size()), j.completed_tasks);
        for (int t = 0; t < j.dispatchable_tasks && static_cast<int>(grants.size()) < count;
             ++t) {
          grants.push_back(j.id);
        }
      }
      return grants;
    }
  };
  ProbeScheduler scheduler;
  EngineSimulation cluster(quiet_config(1, 1), scheduler);
  cluster.submit(simple_job("probe", 0.0, 2, 1, 5.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
}

TEST(Cluster, PaperTestbedShape) {
  const auto nodes = paper_testbed_nodes();
  ContainerCount total = 0;
  for (const Node& n : nodes) total += n.containers;
  EXPECT_EQ(total, 48);  // 48 vCPUs in the paper's cluster
  EXPECT_EQ(nodes.size(), 6u);
}

// ClusterView::find keeps two lookup paths: the dense id_to_index map the
// engine maintains, and a linear-scan fallback for hand-built views whose
// map is empty.  The fallback must stay correct while jobs are erased and
// re-inserted (completion + re-submission churn), and must agree with the
// indexed path on identical contents — the incremental-view seed PR made
// the map authoritative, so any drift between the two paths is a bug.
TEST(ClusterViewFind, LinearScanFallbackUnderChurn) {
  ClusterView view;  // id_to_index left empty: every lookup takes the scan
  const auto insert = [&](JobId id) {
    JobView jv;
    jv.id = id;
    jv.total_tasks = static_cast<int>(id) + 1;
    const auto at = std::lower_bound(
        view.jobs.begin(), view.jobs.end(), id,
        [](const JobView& j, JobId want) { return j.id < want; });
    view.jobs.insert(at, jv);
  };
  const auto erase = [&](JobId id) {
    view.jobs.erase(std::remove_if(view.jobs.begin(), view.jobs.end(),
                                   [&](const JobView& j) { return j.id == id; }),
                    view.jobs.end());
  };

  for (JobId id = 0; id < 6; ++id) insert(id);
  for (JobId id = 0; id < 6; id += 2) erase(id);  // evens complete
  insert(4);                                      // one re-submits
  insert(9);                                      // a late arrival

  for (const JobId id : {1, 3, 5, 4, 9}) {
    const JobView* jv = view.find(id);
    ASSERT_NE(jv, nullptr) << "job " << id;
    EXPECT_EQ(jv->id, id);
    EXPECT_EQ(jv->total_tasks, static_cast<int>(id) + 1);
  }
  for (const JobId id : {0, 2, 6, 100}) {
    EXPECT_EQ(view.find(id), nullptr) << "job " << id;
  }
  EXPECT_EQ(view.find(kInvalidJob), nullptr);

  // find_mutable is the same scan and must alias the stored element.
  JobView* mutated = view.find_mutable(3);
  ASSERT_NE(mutated, nullptr);
  mutated->completed_tasks = 2;
  EXPECT_EQ(view.find(3)->completed_tasks, 2);

  // Rebuilding the dense map over the churned contents must change no
  // answer: indexed lookup and the fallback are two views of one truth.
  ClusterView indexed = view;
  indexed.id_to_index.assign(16, -1);
  for (std::size_t slot = 0; slot < indexed.jobs.size(); ++slot) {
    indexed.id_to_index[static_cast<std::size_t>(indexed.jobs[slot].id)] =
        static_cast<std::int32_t>(slot);
  }
  for (JobId id = 0; id < 16; ++id) {
    const JobView* scanned = view.find(id);
    const JobView* mapped = indexed.find(id);
    EXPECT_EQ(scanned == nullptr, mapped == nullptr) << "job " << id;
    if (scanned != nullptr && mapped != nullptr) {
      EXPECT_EQ(scanned->id, mapped->id);
      EXPECT_EQ(scanned->total_tasks, mapped->total_tasks);
    }
  }
}

}  // namespace
}  // namespace rush
