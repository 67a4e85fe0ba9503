#include "src/core/rush_scheduler.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/core/rush_planner.h"
#include "src/engine/simulation.h"

namespace rush {
namespace {

JobSpec make_job(const std::string& name, Seconds arrival, Seconds budget, int maps,
                 int reduces, Seconds task_seconds, const std::string& utility,
                 double beta, Priority priority) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = arrival;
  spec.budget = budget;
  spec.priority = priority;
  spec.beta = beta;
  spec.utility_kind = utility;
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  for (int r = 0; r < reduces; ++r) spec.tasks.push_back({task_seconds, true});
  return spec;
}

// ---------- RushPlanner ----------

TEST(RushPlanner, SingleJobPlanCoversDemand) {
  RushConfig config;
  config.prior.mean_runtime = 10.0;
  config.prior.stddev_runtime = 2.0;
  RushPlanner planner(config);

  const SigmoidUtility utility(200.0, 4.0, 0.05);
  PlannerJob job;
  job.id = 0;
  job.set_demand(QuantizedPmf::gaussian(100.0, 10.0, 256, 1.0));
  job.mean_runtime = 10.0;
  job.utility = &utility;

  const Plan plan = planner.plan({job}, 4, 0.0);
  ASSERT_EQ(plan.entries.size(), 1u);
  const PlanEntry& entry = plan.entries[0];
  EXPECT_GE(entry.eta, 100.0);           // robust demand at least the mean
  EXPECT_GT(entry.desired_containers, 0);
  EXPECT_LE(entry.desired_containers, 4);
  EXPECT_FALSE(entry.impossible);
  EXPECT_LE(entry.target_completion, 200.0);  // meets its budget comfortably
}

TEST(RushPlanner, RobustnessInflatesDemand) {
  const SigmoidUtility utility(500.0, 4.0, 0.05);
  PlannerJob job;
  job.id = 0;
  job.set_demand(QuantizedPmf::gaussian(300.0, 60.0, 256, 2.0));
  job.mean_runtime = 10.0;
  job.utility = &utility;

  RushConfig trusting;
  trusting.delta = 0.0;
  RushConfig robust;
  robust.delta = 1.0;
  const double eta_trusting = RushPlanner(trusting).plan({job}, 4, 0.0).entries[0].eta;
  const double eta_robust = RushPlanner(robust).plan({job}, 4, 0.0).entries[0].eta;
  EXPECT_GT(eta_robust, eta_trusting);
}

TEST(RushPlanner, InsensitiveJobCedesContainersUnderContention) {
  RushConfig config;
  RushPlanner planner(config);
  const SigmoidUtility urgent(60.0, 5.0, 0.5);
  const ConstantUtility relaxed(5.0);

  PlannerJob a;
  a.id = 0;
  a.set_demand(QuantizedPmf::gaussian(200.0, 20.0, 256, 2.0));
  a.mean_runtime = 10.0;
  a.utility = &urgent;
  PlannerJob b = a;
  b.id = 1;
  b.utility = &relaxed;

  const Plan plan = planner.plan({a, b}, 4, 0.0);
  const PlanEntry* ea = plan.find(0);
  const PlanEntry* eb = plan.find(1);
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  // The urgent job needs ~200cs/60s > 3 containers now; the constant job
  // can wait and its queue-head share must be smaller.
  EXPECT_GT(ea->desired_containers, eb->desired_containers);
  EXPECT_LT(ea->target_completion, eb->target_completion);
}

TEST(RushPlanner, ImpossibleJobIsFlagged) {
  RushConfig config;
  RushPlanner planner(config);
  const StepUtility hopeless(5.0, 3.0);  // 5 s budget
  PlannerJob job;
  job.id = 0;
  job.set_demand(QuantizedPmf::gaussian(5000.0, 100.0, 256, 40.0));
  job.mean_runtime = 20.0;
  job.utility = &hopeless;
  const Plan plan = planner.plan({job}, 2, 0.0);
  EXPECT_TRUE(plan.entries[0].impossible);
}

TEST(RushPlanner, DesiredContainersNeverExceedCapacity) {
  RushConfig config;
  RushPlanner planner(config);
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
  for (JobId i = 0; i < 6; ++i) {
    utilities.push_back(std::make_unique<SigmoidUtility>(100.0 + 30.0 * i, 3.0, 0.1));
    PlannerJob j;
    j.id = i;
    j.set_demand(QuantizedPmf::gaussian(150.0, 30.0, 128, 2.0));
    j.mean_runtime = 12.0;
    j.utility = utilities.back().get();
    jobs.push_back(std::move(j));
  }
  const Plan plan = planner.plan(jobs, 5, 0.0);
  int total_desired = 0;
  for (const PlanEntry& e : plan.entries) {
    EXPECT_GE(e.desired_containers, 0);
    total_desired += e.desired_containers;
  }
  EXPECT_LE(total_desired, 5);
}

TEST(RushPlanner, ConfigValidation) {
  RushConfig bad;
  bad.theta = 1.5;
  EXPECT_THROW(RushPlanner{bad}, InvalidInput);
  bad = {};
  bad.bins = 1;
  EXPECT_THROW(RushPlanner{bad}, InvalidInput);
  bad = {};
  bad.delta = -0.5;
  EXPECT_THROW(RushPlanner{bad}, InvalidInput);
  // Every real-valued field must be finite: an infinite KL radius would
  // reach the WCDE kernels, and a NaN fails every range check silently.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double value : {inf, nan}) {
    bad = {};
    bad.delta = value;
    EXPECT_THROW(RushPlanner{bad}, InvalidInput) << "delta " << value;
    bad = {};
    bad.delta_min = value;
    EXPECT_THROW(RushPlanner{bad}, InvalidInput) << "delta_min " << value;
    bad = {};
    bad.peel_tolerance = value;
    EXPECT_THROW(RushPlanner{bad}, InvalidInput) << "peel_tolerance " << value;
    bad = {};
    bad.prior.mean_runtime = value;
    EXPECT_THROW(RushPlanner{bad}, InvalidInput) << "prior.mean_runtime " << value;
    bad = {};
    bad.prior.stddev_runtime = value;
    EXPECT_THROW(RushPlanner{bad}, InvalidInput) << "prior.stddev_runtime " << value;
    bad = {};
    bad.theta = value;
    EXPECT_THROW(RushPlanner{bad}, InvalidInput) << "theta " << value;
  }
}

TEST(RushConfig, AdaptiveDeltaShrinksWithSamples) {
  RushConfig config;
  config.adaptive_delta = true;
  config.delta = 0.8;
  config.full_trust_samples = 35;
  config.delta_min = 0.1;
  EXPECT_DOUBLE_EQ(config.delta_for(0).value(), 0.8);
  EXPECT_DOUBLE_EQ(config.delta_for(35).value(), 0.8);
  EXPECT_LT(config.delta_for(140).value(), 0.8);
  EXPECT_GE(config.delta_for(1000000).value(), 0.1);
  config.adaptive_delta = false;
  EXPECT_DOUBLE_EQ(config.delta_for(1000000).value(), 0.8);
}

// Fuzz property: on random inputs every plan is internally consistent —
// desired containers within capacity, robust demand at least the reference
// quantile, completions after `now`, one entry per job.
class PlannerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerFuzzTest, PlansAreAlwaysConsistent) {
  Rng rng(GetParam());
  RushConfig config;
  config.theta = rng.uniform(0.55, 0.95);
  config.delta = rng.uniform(0.0, 1.2);
  RushPlanner planner(config);

  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 11));
  const Seconds now = rng.uniform(0.0, 500.0);
  for (JobId i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 2)) {
      case 0:
        utilities.push_back(std::make_unique<LinearUtility>(
            now + rng.uniform(10.0, 400.0), rng.uniform(0.5, 5.0),
            rng.uniform(0.01, 0.5)));
        break;
      case 1:
        utilities.push_back(std::make_unique<SigmoidUtility>(
            now + rng.uniform(10.0, 400.0), rng.uniform(0.5, 5.0),
            rng.uniform(0.01, 0.5)));
        break;
      default:
        utilities.push_back(std::make_unique<ConstantUtility>(rng.uniform(0.5, 5.0)));
    }
    PlannerJob job;
    job.id = i;
    const double mean = rng.uniform(20.0, 2000.0);
    job.set_demand(QuantizedPmf::gaussian(mean, rng.uniform(0.0, 0.4) * mean, 128,
                                        mean * 3.5 / 128.0));
    job.mean_runtime = rng.uniform(1.0, 60.0);
    job.samples = static_cast<std::size_t>(rng.uniform_int(0, 100));
    job.utility = utilities.back().get();
    jobs.push_back(std::move(job));
  }

  const ContainerCount capacity = 1 + static_cast<int>(rng.uniform_int(0, 47));
  const Plan plan = planner.plan(jobs, capacity, now);

  ASSERT_EQ(plan.entries.size(), jobs.size());
  int total_desired = 0;
  for (const PlannerJob& job : jobs) {
    const PlanEntry* entry = plan.find(job.id);
    ASSERT_NE(entry, nullptr) << "job " << job.id << " missing from plan";
    EXPECT_GE(entry->eta, job.demand->quantile_value(Probability(config.theta)) - 1e-6)
        << "robust demand below the reference quantile";
    EXPECT_GE(entry->target_completion, now - 1e-9);
    EXPECT_TRUE(std::isfinite(entry->target_completion));
    EXPECT_GE(entry->desired_containers, 0);
    total_desired += entry->desired_containers;
  }
  EXPECT_LE(total_desired, capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110,
                                           121, 132));

// ---------- RushScheduler end-to-end ----------

ClusterConfig quiet_config(ContainerCount containers, double noise = 0.0) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(1, containers);
  config.runtime_noise_sigma = noise;
  config.seed = 3;
  return config;
}

TEST(RushScheduler, DrainsAMixedWorkload) {
  RushConfig config;
  config.prior.mean_runtime = 8.0;
  config.prior.stddev_runtime = 3.0;
  RushScheduler scheduler(config);
  EngineSimulation cluster(quiet_config(4, 0.2), scheduler);
  cluster.submit(make_job("a", 0.0, 300.0, 6, 1, 8.0, "sigmoid", 0.1, 3.0));
  cluster.submit(make_job("b", 5.0, 200.0, 4, 0, 8.0, "linear", 0.05, 2.0));
  cluster.submit(make_job("c", 10.0, 0.0, 4, 0, 8.0, "constant", 1.0, 1.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  for (const auto& job : result.jobs) EXPECT_NE(job.completion, kNever);
  EXPECT_GT(scheduler.plan_stats().passes, 0);
}

TEST(RushScheduler, PrefersTheJobItPlannedFor) {
  // An urgent sigmoid job and an insensitive constant job competing for one
  // container: the urgent one must hold it first.
  RushConfig config;
  config.prior.mean_runtime = 10.0;
  config.prior.stddev_runtime = 2.0;
  RushScheduler scheduler(config);
  EngineSimulation cluster(quiet_config(1), scheduler);
  cluster.submit(make_job("urgent", 0.0, 45.0, 3, 0, 10.0, "sigmoid", 0.5, 5.0));
  cluster.submit(make_job("patient", 0.0, 0.0, 3, 0, 10.0, "constant", 1.0, 5.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  // The urgent job finishes before the patient one.
  EXPECT_LT(result.jobs[0].completion, result.jobs[1].completion);
}

TEST(RushScheduler, SameTimeCompletionsShareOneWave) {
  RushConfig config;
  RushScheduler scheduler(config);
  EngineSimulation cluster(quiet_config(8), scheduler);
  // One 16-task job: 16 assignments, but task finishes come in bursts of 8
  // at equal times, so each burst is one wave and one planning pass.
  cluster.submit(make_job("burst", 0.0, 500.0, 16, 0, 10.0, "sigmoid", 0.05, 2.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.assignments, 16);
  EXPECT_LT(scheduler.plan_stats().passes, result.assignments);
}

// ---------- one planning pass per wave ----------

/// Two jobs mid-run at t = 25 on four containers, one free.
ClusterView two_job_view(const UtilityFunction* a_utility,
                         const UtilityFunction* b_utility) {
  ClusterView view;
  view.now = 25.0;
  view.capacity = 4;
  view.free_containers = 1;
  JobView a;
  a.id = 1;
  a.budget_deadline = 300.0;
  a.utility = a_utility;
  a.total_tasks = 6;
  a.completed_tasks = 2;
  a.running_tasks = 1;
  a.remaining_maps = 4;
  a.dispatchable_tasks = 3;
  JobView b = a;
  b.id = 2;
  b.arrival = 5.0;
  b.budget_deadline = 200.0;
  b.utility = b_utility;
  b.total_tasks = 5;
  b.completed_tasks = 1;
  view.jobs = {a, b};
  return view;
}

/// A scheduler that has seen both jobs arrive and served one wave of `view`.
void arrive_and_plan(RushScheduler& scheduler, const ClusterView& view) {
  scheduler.on_job_arrival(view, 1);
  scheduler.on_job_arrival(view, 2);
  ASSERT_TRUE(scheduler.assign_container(view).has_value());
  ASSERT_EQ(scheduler.plan_stats().passes, 1);
}

TEST(RushScheduler, EveryWaveRunsOnePass) {
  const SigmoidUtility sigmoid(280.0, 4.0, 0.05);
  const LinearUtility linear(180.0, 2.0, 0.03);
  const ClusterView view = two_job_view(&sigmoid, &linear);
  RushScheduler scheduler;
  arrive_and_plan(scheduler, view);
  // No hook fired and the timestamp is the same: the wave still plans.
  ASSERT_TRUE(scheduler.assign_container(view).has_value());
  EXPECT_EQ(scheduler.plan_stats().passes, 2);
}

TEST(RushScheduler, WarmPassPlansWhatAFreshSchedulerPlans) {
  const SigmoidUtility sigmoid(280.0, 4.0, 0.05);
  const LinearUtility linear(180.0, 2.0, 0.03);
  const ClusterView view = two_job_view(&sigmoid, &linear);
  RushScheduler scheduler;
  arrive_and_plan(scheduler, view);

  // A failure changes no planner input: a wasted attempt is not a runtime
  // sample, and the remaining-task counts stay put.
  scheduler.on_task_failed(view, 1, 3.0);
  ASSERT_TRUE(scheduler.assign_container(view).has_value());
  EXPECT_EQ(scheduler.plan_stats().passes, 2);

  // The warm pass (peel hint, WCDE memo) plans exactly what a fresh
  // scheduler plans from the same view.
  RushScheduler fresh;
  arrive_and_plan(fresh, view);
  const Plan& got = scheduler.current_plan();
  const Plan& want = fresh.current_plan();
  EXPECT_EQ(got.computed_at, want.computed_at);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    const PlanEntry& x = got.entries[i];
    const PlanEntry& y = want.entries[i];
    EXPECT_EQ(x.id, y.id) << "entry " << i;
    EXPECT_EQ(x.eta, y.eta) << "entry " << i;
    EXPECT_EQ(x.target_completion, y.target_completion) << "entry " << i;
    EXPECT_EQ(x.utility_level, y.utility_level) << "entry " << i;
    EXPECT_EQ(x.impossible, y.impossible) << "entry " << i;
    EXPECT_EQ(x.desired_containers, y.desired_containers) << "entry " << i;
  }
}

TEST(RushScheduler, LaterWavePlansAtItsOwnTimestamp) {
  const SigmoidUtility sigmoid(280.0, 4.0, 0.05);
  const LinearUtility linear(180.0, 2.0, 0.03);
  const ClusterView view = two_job_view(&sigmoid, &linear);
  RushScheduler scheduler;
  arrive_and_plan(scheduler, view);

  // No hook fired, but slot mapping packs queues from `now`, so the plan
  // is computed at the later wave's timestamp.
  ClusterView later = view;
  later.now = 27.0;
  ASSERT_TRUE(scheduler.assign_container(later).has_value());
  EXPECT_EQ(scheduler.plan_stats().passes, 2);
  EXPECT_EQ(scheduler.current_plan().computed_at, 27.0);
}

TEST(RushScheduler, PhaseAwareModeDrainsAndPlans) {
  RushConfig config;
  config.phase_aware_estimation = true;
  config.prior.mean_runtime = 10.0;
  config.prior.stddev_runtime = 4.0;
  RushScheduler scheduler(config);
  EngineSimulation cluster(quiet_config(4, 0.2), scheduler);
  // Reduce-heavy jobs: the case phase-aware estimation exists for.
  cluster.submit(make_job("heavy-reduce", 0.0, 600.0, 8, 4, 10.0, "sigmoid", 0.05, 3.0));
  cluster.submit(make_job("map-only", 20.0, 400.0, 10, 0, 10.0, "linear", 0.02, 2.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(scheduler.plan_stats().passes, 0);
  for (const auto& job : result.jobs) EXPECT_NE(job.completion, kNever);
}

TEST(RushScheduler, ExposesProjectedCompletions) {
  RushConfig config;
  RushScheduler scheduler(config);
  EngineSimulation cluster(quiet_config(2), scheduler);
  cluster.submit(make_job("watched", 0.0, 300.0, 4, 0, 10.0, "sigmoid", 0.1, 2.0));
  cluster.run();
  // After the run, the last computed plan still carries the job's entry
  // from some intermediate event with a finite projected completion.
  const Plan& plan = scheduler.current_plan();
  ASSERT_FALSE(plan.entries.empty());
  EXPECT_TRUE(std::isfinite(plan.entries[0].target_completion));
}

}  // namespace
}  // namespace rush
