#include <gtest/gtest.h>

#include "src/baselines/edf_scheduler.h"
#include "src/baselines/fair_scheduler.h"
#include "src/baselines/fifo_scheduler.h"
#include "src/baselines/rrh_scheduler.h"
#include "src/engine/simulation.h"

namespace rush {
namespace {

JobSpec make_job(const std::string& name, Seconds arrival, Seconds budget, int tasks,
                 Seconds task_seconds, const std::string& utility = "linear",
                 double beta = 0.1, Priority priority = 1.0) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = arrival;
  spec.budget = budget;
  spec.priority = priority;
  spec.beta = beta;
  spec.utility_kind = utility;
  for (int t = 0; t < tasks; ++t) spec.tasks.push_back({task_seconds, false});
  return spec;
}

ClusterConfig config_with(ContainerCount containers) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, containers);
  config.runtime_noise_sigma = 0.0;
  return config;
}

// Synthetic view helpers for direct scheduler decisions.
JobView view_job(JobId id, Seconds arrival, Seconds deadline, int dispatchable,
                 int running, const UtilityFunction* utility,
                 const std::vector<Seconds>* samples) {
  JobView jv;
  jv.id = id;
  jv.arrival = arrival;
  jv.budget_deadline = deadline;
  jv.utility = utility;
  jv.total_tasks = dispatchable + running;
  jv.dispatchable_tasks = dispatchable;
  jv.running_tasks = running;
  jv.runtime_samples = samples;
  return jv;
}

TEST(Fifo, PicksEarliestArrival) {
  FifoScheduler s;
  const LinearUtility u(100, 1, 0.1);
  const std::vector<Seconds> samples;
  ClusterView view;
  view.jobs = {view_job(0, 50.0, 500, 2, 0, &u, &samples),
               view_job(1, 10.0, 100, 2, 0, &u, &samples),
               view_job(2, 30.0, 200, 2, 0, &u, &samples)};
  EXPECT_EQ(s.assign_container(view).value(), 1);
}

TEST(Fifo, ExclusiveModeIdlesBehindHeadOfLine) {
  // Paper semantics: one job at a time.  While the head job cannot take
  // another container (reduce barrier), later jobs must NOT run.
  FifoScheduler s;  // exclusive by default
  const LinearUtility u(100, 1, 0.1);
  const std::vector<Seconds> samples;
  ClusterView view;
  view.jobs = {view_job(0, 10.0, 100, 0, 3, &u, &samples),
               view_job(1, 50.0, 100, 1, 0, &u, &samples)};
  EXPECT_FALSE(s.assign_container(view).has_value());
  view.jobs[0].dispatchable_tasks = 2;
  EXPECT_EQ(s.assign_container(view).value(), 0);
}

TEST(Fifo, WorkConservingVariantSkipsBlockedJobs) {
  FifoScheduler s(/*exclusive=*/false);
  EXPECT_EQ(s.name(), "FIFO-wc");
  const LinearUtility u(100, 1, 0.1);
  const std::vector<Seconds> samples;
  ClusterView view;
  view.jobs = {view_job(0, 10.0, 100, 0, 3, &u, &samples),
               view_job(1, 50.0, 100, 1, 0, &u, &samples)};
  EXPECT_EQ(s.assign_container(view).value(), 1);
  view.jobs[1].dispatchable_tasks = 0;
  EXPECT_FALSE(s.assign_container(view).has_value());
}

TEST(Edf, ExclusiveModeServesOneJobAtATime) {
  EdfScheduler s;  // exclusive by default
  const LinearUtility u(100, 1, 0.1);
  const std::vector<Seconds> samples;
  ClusterView view;
  // Head (earliest deadline) is blocked: idle even though job 1 could run.
  view.jobs = {view_job(0, 0.0, 50, 0, 2, &u, &samples),
               view_job(1, 0.0, 90, 2, 0, &u, &samples)};
  EXPECT_FALSE(s.assign_container(view).has_value());
  EdfScheduler wc(/*exclusive=*/false);
  EXPECT_EQ(wc.assign_container(view).value(), 1);
}

TEST(Edf, PicksEarliestBudgetDeadline) {
  EdfScheduler s;
  const LinearUtility u(100, 1, 0.1);
  const std::vector<Seconds> samples;
  ClusterView view;
  view.jobs = {view_job(0, 0.0, 500, 2, 0, &u, &samples),
               view_job(1, 0.0, 90, 2, 0, &u, &samples),
               view_job(2, 0.0, 200, 2, 0, &u, &samples)};
  EXPECT_EQ(s.assign_container(view).value(), 1);
}

TEST(Fair, BalancesByWeightedShare) {
  FairScheduler s;
  const ConstantUtility u(1.0);
  const std::vector<Seconds> samples;
  ClusterView view;
  // Job 0 holds 4 containers at weight 2 (ratio 2); job 1 holds 1 at weight
  // 1 (ratio 1): job 1 is more deprived.
  JobView a = view_job(0, 0.0, 100, 5, 4, &u, &samples);
  a.priority = 2.0;
  JobView b = view_job(1, 0.0, 100, 5, 1, &u, &samples);
  b.priority = 1.0;
  view.jobs = {a, b};
  EXPECT_EQ(s.assign_container(view).value(), 1);
  // Flip the shares: job 0 empty-handed now wins.
  view.jobs[0].running_tasks = 0;
  view.jobs[1].running_tasks = 3;
  EXPECT_EQ(s.assign_container(view).value(), 0);
}

TEST(Rrh, FavorsSteepUtilityCliffs) {
  RrhScheduler s;
  // Same budget/workload; the time-critical job (steep sigmoid) must win
  // the container over the mildly sensitive one.
  const SigmoidUtility critical(300.0, 3.0, 1.0);
  const SigmoidUtility relaxed(300.0, 3.0, 0.005);
  const std::vector<Seconds> samples;
  ClusterView view;
  view.now = 100.0;
  view.jobs = {view_job(0, 0.0, 300, 4, 1, &relaxed, &samples),
               view_job(1, 0.0, 300, 4, 1, &critical, &samples)};
  EXPECT_EQ(s.assign_container(view).value(), 1);
}

TEST(Rrh, LearnsRuntimesFromCompletions) {
  RrhScheduler s;
  const SigmoidUtility u(300.0, 3.0, 0.05);
  const std::vector<Seconds> samples;
  ClusterView view;
  view.jobs = {view_job(0, 0.0, 300, 4, 0, &u, &samples)};
  for (int i = 0; i < 5; ++i) s.on_task_finished(view, 0, 42.0, false);
  // No crash, still assigns.
  EXPECT_EQ(s.assign_container(view).value(), 0);
}

// End-to-end behavioural signatures from the paper's discussion (§V-B).

TEST(BaselineBehaviour, FifoHeadOfLineBlocking) {
  // A huge early job starves a later tiny job under FIFO; EDF lets the tiny
  // tight-deadline job through first.
  const auto run = [](Scheduler& s) {
    EngineSimulation cluster(config_with(2), s);
    cluster.submit(make_job("big", 0.0, 10000.0, 20, 30.0));
    cluster.submit(make_job("tiny", 1.0, 50.0, 1, 10.0));
    const auto result = cluster.run();
    return result.jobs[1].completion;
  };
  FifoScheduler fifo;
  EdfScheduler edf;
  const Seconds fifo_tiny = run(fifo);
  const Seconds edf_tiny = run(edf);
  EXPECT_LT(edf_tiny, fifo_tiny);
  EXPECT_LE(edf_tiny, 51.0);     // meets its 50 s budget
  EXPECT_GT(fifo_tiny, 100.0);   // blocked behind the big job
}

TEST(BaselineBehaviour, EdfIgnoresSensitivity) {
  // Two jobs, same deadline, both still able to meet it: EDF ties by id
  // regardless of how much utility is at stake; RRH picks the steep one
  // (which loses everything if delayed, while the flat one barely cares).
  EdfScheduler edf;
  RrhScheduler rrh;
  const SigmoidUtility steep(130.0, 5.0, 1.0);
  const SigmoidUtility flat(130.0, 5.0, 0.01);
  const std::vector<Seconds> samples;
  ClusterView view;
  view.now = 60.0;
  view.jobs = {view_job(0, 0.0, 130, 1, 0, &flat, &samples),
               view_job(1, 0.0, 130, 1, 0, &steep, &samples)};
  EXPECT_EQ(edf.assign_container(view).value(), 0);  // id tie-break, blind
  EXPECT_EQ(rrh.assign_container(view).value(), 1);  // utility-aware
}

TEST(BaselineBehaviour, AllBaselinesDrainTheCluster) {
  FifoScheduler fifo;
  EdfScheduler edf;
  RrhScheduler rrh;
  FairScheduler fair;
  for (Scheduler* s : std::initializer_list<Scheduler*>{&fifo, &edf, &rrh, &fair}) {
    EngineSimulation cluster(config_with(3), *s);
    for (int i = 0; i < 6; ++i) {
      cluster.submit(make_job("j" + std::to_string(i), i * 5.0, 200.0, 4, 8.0,
                              i % 2 == 0 ? "sigmoid" : "linear", 0.1,
                              1.0 + i % 3));
    }
    const auto result = cluster.run();
    EXPECT_TRUE(result.completed) << s->name();
    for (const auto& job : result.jobs) {
      EXPECT_NE(job.completion, kNever) << s->name() << " " << job.name;
    }
  }
}

}  // namespace
}  // namespace rush
