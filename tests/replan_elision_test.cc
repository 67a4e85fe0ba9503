// Differential tests for replan elision and layer replay (DESIGN.md §5h).
//
// Across 50 randomized workloads, a RUSH run with replan elision enabled at
// tolerance 0 must reproduce the always-replanning run bit-for-bit:
// identical event traces,
// identical metrics CSV bytes, identical final utilities, identical final
// plan (etas, peel levels, desired allocations) — and the pass/elision
// counters of the two runs must reconcile exactly.  A scheduler-level
// property test then pins the tolerance-0 gate on the one wave shape where
// it fires (a same-timestamp dirty wave with untouched inputs), nonzero
// tolerance runs bound the utility deviation of the bounded-loss regime,
// and peel-level churn tests hold layer replay to a cold re-peel under
// drift, arrivals and departures, with the TAS audit armed throughout.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/invariant_auditor.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/core/rush_scheduler.h"
#include "src/estimator/distribution_estimator.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"
#include "src/tas/onion_peeling.h"
#include "src/utility/utility_function.h"

namespace rush {
namespace {

// ---------- workload + run helpers ----------

std::vector<JobSpec> random_workload(std::uint64_t seed) {
  Rng rng(seed);
  const int num_jobs = 3 + static_cast<int>(rng.uniform_int(0, 4));
  std::vector<JobSpec> specs;
  for (int j = 0; j < num_jobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.arrival = rng.uniform(0.0, 150.0);
    spec.budget = rng.uniform(60.0, 400.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.beta = rng.uniform(0.5, 2.0);
    switch (rng.uniform_int(0, 2)) {
      case 0: spec.utility_kind = "linear"; break;
      case 1: spec.utility_kind = "sigmoid"; break;
      default: spec.utility_kind = "constant"; break;
    }
    const int maps = 1 + static_cast<int>(rng.uniform_int(0, 9));
    const int reduces = static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(5.0, 50.0), false});
    }
    for (int r = 0; r < reduces; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(5.0, 40.0), true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct ElisionRun {
  RunResult result;
  TraceRecorder trace;
  Plan final_plan;
  long passes = 0;
  long elided = 0;
  long layers_replayed = 0;
};

/// One simulated run of the seeded workload under a caller-chosen
/// RushConfig.  Lognormal noise keeps distinct events off identical
/// timestamps, so the two runs of a differential pair stay event-for-event
/// comparable.
void run_rush(std::uint64_t seed, const RushConfig& rush, ElisionRun& out) {
  Rng knobs(seed * 7919);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(2, 3);  // 6 containers, small but contended
  config.runtime_noise_sigma = 0.3;
  config.task_failure_probability = knobs.uniform() < 0.5 ? 0.08 : 0.0;
  config.seed = seed + 17;
  config.audit_incremental_view = true;

  const auto scheduler = make_named_scheduler("RUSH", rush);
  EngineSimulation simulation(config, *scheduler);
  simulation.set_observer(&out.trace);
  for (JobSpec spec : random_workload(seed)) simulation.submit(std::move(spec));
  out.result = simulation.run();
  const auto* rush_scheduler = dynamic_cast<const RushScheduler*>(scheduler.get());
  ASSERT_NE(rush_scheduler, nullptr);
  out.final_plan = rush_scheduler->current_plan();
  const PlanStats stats = rush_scheduler->plan_stats();
  out.passes = stats.passes;
  out.elided = stats.plans_elided;
  out.layers_replayed = stats.layers_replayed;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_metrics_csv(const std::string& path, const RunResult& result) {
  CsvWriter csv(path, {"job", "name", "completion", "utility", "latency"});
  for (const JobRecord& job : result.jobs) {
    csv.add_row({std::to_string(job.id), job.name, std::to_string(job.completion),
                 std::to_string(job.utility), std::to_string(job.latency())});
  }
}

void expect_traces_identical(const TraceRecorder& a, const TraceRecorder& b,
                             const std::string& context) {
  ASSERT_EQ(a.events().size(), b.events().size()) << context;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.time, y.time) << context << " event " << i;
    EXPECT_EQ(x.kind, y.kind) << context << " event " << i;
    EXPECT_EQ(x.job, y.job) << context << " event " << i;
    EXPECT_EQ(x.container, y.container) << context << " event " << i;
    EXPECT_EQ(x.value, y.value) << context << " event " << i;
    EXPECT_EQ(x.label, y.label) << context << " event " << i;
  }
}

void expect_metrics_bytes_identical(const RunResult& a, const RunResult& b,
                                    const std::string& context) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/elision_metrics_a.csv";
  const std::string path_b = dir + "/elision_metrics_b.csv";
  write_metrics_csv(path_a, a);
  write_metrics_csv(path_b, b);
  const std::string bytes = slurp(path_a);
  EXPECT_FALSE(bytes.empty()) << context;
  EXPECT_EQ(bytes, slurp(path_b)) << context;
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

void expect_plans_identical(const Plan& a, const Plan& b, const std::string& context) {
  ASSERT_EQ(a.entries.size(), b.entries.size()) << context;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const PlanEntry& x = a.entries[i];
    const PlanEntry& y = b.entries[i];
    EXPECT_EQ(x.id, y.id) << context << " entry " << i;
    EXPECT_EQ(x.eta, y.eta) << context << " entry " << i;
    EXPECT_EQ(x.target_completion, y.target_completion) << context << " entry " << i;
    EXPECT_EQ(x.utility_level, y.utility_level) << context << " entry " << i;
    EXPECT_EQ(x.impossible, y.impossible) << context << " entry " << i;
    EXPECT_EQ(x.desired_containers, y.desired_containers) << context << " entry " << i;
  }
}

// ---------- the 50-seed matrix at tolerance 0 ----------

class ElisionDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElisionDifferentialTest, ElisionAtToleranceZeroIsByteIdentical) {
  const std::uint64_t seed = GetParam();
  const std::string context = "seed=" + std::to_string(seed);
  RushConfig elide;
  elide.replan_elision = true;  // tolerance 0 = exact gate
  // The audit is the point of the exercise: every elided wave is proved
  // against a freshly computed plan regardless of the build type.
  elide.audit_invariants = true;
  RushConfig replan = elide;
  replan.replan_elision = false;

  ElisionRun with;
  run_rush(seed, elide, with);
  ElisionRun without;
  run_rush(seed, replan, without);

  ASSERT_TRUE(with.result.completed) << context;
  ASSERT_TRUE(without.result.completed) << context;
  expect_traces_identical(with.trace, without.trace, context);
  expect_metrics_bytes_identical(with.result, without.result, context);
  expect_plans_identical(with.final_plan, without.final_plan, context);

  EXPECT_EQ(with.result.makespan, without.result.makespan) << context;
  ASSERT_EQ(with.result.jobs.size(), without.result.jobs.size()) << context;
  for (std::size_t j = 0; j < with.result.jobs.size(); ++j) {
    EXPECT_EQ(with.result.jobs[j].utility, without.result.jobs[j].utility)
        << context << " job " << j;
  }

  // Counter reconciliation: every wave the elision run served from the
  // cached plan is a wave the reference run paid a pass for, and the
  // two runs agree on every other wave.
  EXPECT_EQ(with.passes + with.elided, without.passes) << context;
  EXPECT_EQ(without.elided, 0) << context;
  // Tolerance 0 never arms layer replay.
  EXPECT_EQ(with.layers_replayed, 0) << context;
  EXPECT_EQ(without.layers_replayed, 0) << context;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElisionDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------- bounded loss at a positive tolerance ----------

TEST(ElisionBoundedLoss, PositiveToleranceElidesWithBoundedUtilityDeviation) {
  long total_elided = 0;
  double worst_deviation = 0.0;
  for (const std::uint64_t seed : {3u, 11u, 23u, 37u, 44u}) {
    RushConfig elide;
    elide.replan_elision = true;
    elide.replan_eta_tolerance = 0.25;
    elide.audit_invariants = true;
    RushConfig replan = elide;
    replan.replan_elision = false;
    replan.replan_eta_tolerance = 0.0;

    ElisionRun with;
    run_rush(seed, elide, with);
    ElisionRun without;
    run_rush(seed, replan, without);

    ASSERT_TRUE(with.result.completed);
    ASSERT_TRUE(without.result.completed);
    total_elided += with.elided;
    ASSERT_EQ(with.result.jobs.size(), without.result.jobs.size());
    for (std::size_t j = 0; j < with.result.jobs.size(); ++j) {
      const double reference = without.result.jobs[j].utility;
      const double deviation = std::abs(with.result.jobs[j].utility - reference) /
                               std::max(std::abs(reference), 1.0);
      worst_deviation = std::max(worst_deviation, deviation);
    }
  }
  // The gate must actually fire at this tolerance — otherwise the bound
  // below is vacuous — and the utility deviation it admits stays small
  // relative to the always-replanning reference.
  EXPECT_GT(total_elided, 0);
  EXPECT_LE(worst_deviation, 0.5);
}

// ---------- scheduler-level property: the tolerance-0 gate fires ----------

ClusterView two_job_view(const UtilityFunction* a_utility,
                         const UtilityFunction* b_utility) {
  ClusterView view;
  view.now = 25.0;
  view.capacity = 4;
  view.free_containers = 1;
  JobView a;
  a.id = 1;
  a.arrival = 0.0;
  a.budget_deadline = 300.0;
  a.utility = a_utility;
  a.total_tasks = 6;
  a.completed_tasks = 2;
  a.running_tasks = 1;
  a.remaining_maps = 4;
  a.remaining_reduces = 0;
  a.dispatchable_tasks = 3;
  JobView b;
  b.id = 2;
  b.arrival = 5.0;
  b.budget_deadline = 200.0;
  b.utility = b_utility;
  b.total_tasks = 5;
  b.completed_tasks = 1;
  b.running_tasks = 1;
  b.remaining_maps = 4;
  b.remaining_reduces = 0;
  b.dispatchable_tasks = 3;
  view.jobs = {a, b};
  return view;
}

TEST(ElisionProperty, SameTimestampDirtyWaveElidesByteIdentically) {
  const SigmoidUtility sigmoid(280.0, 4.0, 0.05);
  const LinearUtility linear(180.0, 2.0, 0.03);
  const ClusterView view = two_job_view(&sigmoid, &linear);

  RushConfig elide_config;  // defaults: elision on, tolerance 0
  RushConfig replan_config;
  replan_config.replan_elision = false;
  RushScheduler elide(elide_config);
  RushScheduler replan(replan_config);
  for (RushScheduler* s : {&elide, &replan}) {
    s->on_job_arrival(view, 1);
    s->on_job_arrival(view, 2);
  }

  const auto first_elide = elide.assign_container(view);
  const auto first_replan = replan.assign_container(view);
  ASSERT_TRUE(first_elide.has_value());
  EXPECT_EQ(*first_elide, *first_replan);
  EXPECT_EQ(elide.plans_computed(), 1);
  EXPECT_EQ(replan.plans_computed(), 1);

  // A failure at the very timestamp the plan was computed for: the plan is
  // marked dirty, but no planner input moved (a wasted attempt is not a
  // runtime sample and the remaining-task counts are unchanged), so the
  // tolerance-0 gate accepts and the wave is served from the cached plan —
  // with grants byte-identical to the scheduler that replans.
  elide.on_task_failed(view, 1, 3.0);
  replan.on_task_failed(view, 1, 3.0);
  const auto second_elide = elide.assign_container(view);
  const auto second_replan = replan.assign_container(view);
  ASSERT_TRUE(second_elide.has_value());
  EXPECT_EQ(*second_elide, *second_replan);
  EXPECT_EQ(elide.plans_computed(), 1);
  EXPECT_EQ(elide.plans_elided(), 1);
  EXPECT_EQ(replan.plans_computed(), 2);
  EXPECT_EQ(replan.plans_elided(), 0);
  // Counter reconciliation, and the plans themselves are byte-equal.
  EXPECT_EQ(elide.plans_computed() + elide.plans_elided(), replan.plans_computed());
  expect_plans_identical(elide.current_plan(), replan.current_plan(), "property");

  // A finished task DOES move the inputs (new sample, fewer remaining
  // tasks): the gate must reject and the next wave pays a pass.
  ClusterView later = view;
  later.jobs[0].completed_tasks += 1;
  later.jobs[0].running_tasks -= 1;
  later.jobs[0].remaining_maps -= 1;
  later.jobs[0].dispatchable_tasks -= 1;
  elide.on_task_finished(later, 1, 9.0, false);
  const auto third = elide.assign_container(later);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(elide.plans_computed(), 2);
  EXPECT_EQ(elide.plans_elided(), 1);
}

TEST(ElisionProperty, PositiveToleranceElidesAcrossTimeZeroDoesNot) {
  const SigmoidUtility sigmoid(280.0, 4.0, 0.05);
  const LinearUtility linear(180.0, 2.0, 0.03);
  const ClusterView view = two_job_view(&sigmoid, &linear);

  RushConfig loose_config;
  loose_config.replan_eta_tolerance = 0.5;
  RushConfig exact_config;  // tolerance 0
  RushScheduler loose(loose_config);
  RushScheduler exact(exact_config);
  for (RushScheduler* s : {&loose, &exact}) {
    s->on_job_arrival(view, 1);
    s->on_job_arrival(view, 2);
    ASSERT_TRUE(s->assign_container(view).has_value());
    EXPECT_EQ(s->plans_computed(), 1);
  }

  // Time moves but nothing else does (a failure wave 2 seconds later).  The
  // loose gate elides — no eta drifted at all — while the exact gate must
  // replan: byte-identity is only provable at the cached plan's own
  // timestamp (slot mapping packs queues starting at `now`).
  ClusterView later = view;
  later.now = 27.0;
  loose.on_task_failed(later, 2, 1.5);
  exact.on_task_failed(later, 2, 1.5);
  ASSERT_TRUE(loose.assign_container(later).has_value());
  ASSERT_TRUE(exact.assign_container(later).has_value());
  EXPECT_EQ(loose.plans_computed(), 1);
  EXPECT_EQ(loose.plans_elided(), 1);
  EXPECT_EQ(exact.plans_computed(), 2);
  EXPECT_EQ(exact.plans_elided(), 0);

  // An arrival breaks the structural match: even the loose gate replans.
  ClusterView grown = later;
  grown.now = 29.0;
  JobView c;
  c.id = 3;
  c.arrival = 29.0;
  c.budget_deadline = 250.0;
  c.utility = &linear;
  c.total_tasks = 4;
  c.remaining_maps = 4;
  c.dispatchable_tasks = 4;
  grown.jobs.push_back(c);
  loose.on_job_arrival(grown, 3);
  ASSERT_TRUE(loose.assign_container(grown).has_value());
  EXPECT_EQ(loose.plans_computed(), 2);
  EXPECT_EQ(loose.plans_elided(), 1);
}

// ---------- layer replay vs a cold re-peel ----------

struct PeelFixture {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
};

/// Five jobs with distinct utility shapes and staggered demand — enough
/// layers for a meaningful prefix, loose enough budgets that every level
/// stays feasible when `now` advances a little.
PeelFixture replay_fixture(Seconds now) {
  PeelFixture fx;
  const double budgets[] = {400.0, 520.0, 640.0, 760.0, 880.0};
  const double etas[] = {60.0, 90.0, 120.0, 150.0, 180.0};
  for (int j = 0; j < 5; ++j) {
    if (j % 2 == 0) {
      fx.utilities.push_back(
          std::make_unique<SigmoidUtility>(now + budgets[j], 3.0 + j, 0.02));
    } else {
      fx.utilities.push_back(
          std::make_unique<LinearUtility>(now + budgets[j], 2.0 + j, 0.01));
    }
    TasJob job;
    job.id = j + 1;
    job.eta = etas[j];
    job.avg_task_runtime = 8.0;
    job.utility = fx.utilities.back().get();
    fx.jobs.push_back(job);
  }
  return fx;
}

void expect_targets_close(const TasResult& replayed, const TasResult& cold,
                          double level_bound, const std::string& context) {
  ASSERT_EQ(replayed.targets.size(), cold.targets.size()) << context;
  for (std::size_t i = 0; i < replayed.targets.size(); ++i) {
    const TasTarget& x = replayed.targets[i];
    const TasTarget& y = cold.targets[i];
    EXPECT_EQ(x.id, y.id) << context << " layer " << i;
    EXPECT_EQ(x.layer, y.layer) << context << " layer " << i;
    EXPECT_EQ(x.impossible, y.impossible) << context << " layer " << i;
    const double scale = std::max(std::abs(y.utility_level), 1.0);
    EXPECT_NEAR(x.utility_level, y.utility_level, level_bound * scale)
        << context << " layer " << i;
    EXPECT_NEAR(x.mapping_deadline, y.mapping_deadline,
                level_bound * std::max(std::abs(y.mapping_deadline), 1.0))
        << context << " layer " << i;
    EXPECT_NEAR(x.target_completion, y.target_completion,
                level_bound * std::max(std::abs(y.target_completion), 1.0))
        << context << " layer " << i;
  }
}

void expect_targets_identical(const TasResult& a, const TasResult& b,
                              const std::string& context) {
  ASSERT_EQ(a.targets.size(), b.targets.size()) << context;
  for (std::size_t i = 0; i < a.targets.size(); ++i) {
    EXPECT_EQ(a.targets[i].id, b.targets[i].id) << context << " layer " << i;
    EXPECT_EQ(a.targets[i].mapping_deadline, b.targets[i].mapping_deadline)
        << context << " layer " << i;
    EXPECT_EQ(a.targets[i].target_completion, b.targets[i].target_completion)
        << context << " layer " << i;
    EXPECT_EQ(a.targets[i].utility_level, b.targets[i].utility_level)
        << context << " layer " << i;
    EXPECT_EQ(a.targets[i].layer, b.targets[i].layer) << context << " layer " << i;
    EXPECT_EQ(a.targets[i].impossible, b.targets[i].impossible)
        << context << " layer " << i;
  }
}

TEST(LayerReplay, SameInputsReplayMatchesColdPeel) {
  const Seconds now = 10.0;
  const ContainerCount capacity = 6;
  const PeelFixture fx = replay_fixture(now);
  OnionPeelingConfig base;

  const TasResult cold = onion_peel(fx.jobs, capacity, now, base);
  ASSERT_EQ(cold.targets.size(), fx.jobs.size());
  audit_tas(cold, fx.jobs, capacity, now).throw_if_failed();

  // Nothing moved: the whole peel replays as one certified prefix, and the
  // re-priced layers agree with the cold peel to re-pricing accuracy (the
  // level -> deadline -> level round trip, not a fresh k-section).
  PeelReplay replay;
  replay.targets = &cold.targets;
  replay.moved = nullptr;
  replay.tolerance = 0.2;
  OnionPeelingConfig with = base;
  with.replay = &replay;
  const TasResult replayed = onion_peel(fx.jobs, capacity, now, with);
  EXPECT_EQ(replayed.replayed_layers, static_cast<long>(fx.jobs.size()));
  EXPECT_LT(replayed.probes, cold.probes);
  audit_tas(replayed, fx.jobs, capacity, now).throw_if_failed();
  expect_targets_close(replayed, cold, 5e-3, "same-inputs");
}

TEST(LayerReplay, DriftReplaysPrefixBeforeTheMovedLayer) {
  const Seconds now = 10.0;
  const ContainerCount capacity = 6;
  const PeelFixture fx = replay_fixture(now);
  OnionPeelingConfig base;
  const TasResult cold = onion_peel(fx.jobs, capacity, now, base);

  // Drift one job's demand a little and classify it moved: replay must stop
  // at its layer, re-peel from there, and stay close to a cold re-peel of
  // the drifted inputs field-by-field (audit armed on the replayed result).
  const JobId moved_id = cold.targets[2].id;
  PeelFixture drifted = replay_fixture(now);
  for (TasJob& job : drifted.jobs) {
    if (job.id == moved_id) job.eta *= 1.03;
  }
  std::vector<JobId> moved = {moved_id};
  PeelReplay replay;
  replay.targets = &cold.targets;
  replay.moved = &moved;
  replay.tolerance = 0.2;
  OnionPeelingConfig with = base;
  with.replay = &replay;

  const TasResult replayed = onion_peel(drifted.jobs, capacity, now, with);
  const TasResult fresh = onion_peel(drifted.jobs, capacity, now, base);
  EXPECT_EQ(replayed.replayed_layers, 2);
  audit_tas(replayed, drifted.jobs, capacity, now).throw_if_failed();
  // The replayed prefix froze pre-drift levels, so it deviates from the
  // fresh peel by at most the drift regime that allowed the replay.
  expect_targets_close(replayed, fresh, 0.1, "drift");
}

TEST(LayerReplay, ArrivalDisablesReplayEntirely) {
  const Seconds now = 10.0;
  const ContainerCount capacity = 6;
  const PeelFixture fx = replay_fixture(now);
  OnionPeelingConfig base;
  const TasResult cold = onion_peel(fx.jobs, capacity, now, base);

  PeelFixture grown = replay_fixture(now);
  grown.utilities.push_back(std::make_unique<SigmoidUtility>(now + 500.0, 4.0, 0.02));
  TasJob arrival;
  arrival.id = 99;
  arrival.eta = 70.0;
  arrival.avg_task_runtime = 8.0;
  arrival.utility = grown.utilities.back().get();
  grown.jobs.push_back(arrival);

  PeelReplay replay;
  replay.targets = &cold.targets;
  replay.moved = nullptr;
  replay.tolerance = 0.2;
  OnionPeelingConfig with = base;
  with.replay = &replay;
  const TasResult replayed = onion_peel(grown.jobs, capacity, now, with);
  const TasResult fresh = onion_peel(grown.jobs, capacity, now, base);
  // An arrival adds demand to every layer's constraint set: no replay, and
  // with the machinery off the peel is bit-identical to the cold path.
  EXPECT_EQ(replayed.replayed_layers, 0);
  EXPECT_EQ(replayed.probes, fresh.probes);
  expect_targets_identical(replayed, fresh, "arrival");
}

TEST(LayerReplay, DepartureSkipsTheDepartedLayer) {
  const Seconds now = 10.0;
  const ContainerCount capacity = 6;
  const PeelFixture fx = replay_fixture(now);
  OnionPeelingConfig base;
  const TasResult cold = onion_peel(fx.jobs, capacity, now, base);

  // Remove the job peeled in layer 1: its demand leaving only loosens the
  // EDF constraints, so the remaining layers replay around the gap.
  const JobId departed = cold.targets[1].id;
  PeelFixture shrunk = replay_fixture(now);
  std::vector<TasJob> remaining;
  for (const TasJob& job : shrunk.jobs) {
    if (job.id != departed) remaining.push_back(job);
  }

  PeelReplay replay;
  replay.targets = &cold.targets;
  replay.moved = nullptr;
  replay.tolerance = 0.2;
  OnionPeelingConfig with = base;
  with.replay = &replay;
  const TasResult replayed = onion_peel(remaining, capacity, now, with);
  const TasResult fresh = onion_peel(remaining, capacity, now, base);
  EXPECT_EQ(replayed.replayed_layers, static_cast<long>(remaining.size()));
  audit_tas(replayed, remaining, capacity, now).throw_if_failed();
  // Departed demand only adds slack: replayed levels stay within the same
  // loose regime of the fresh peel.
  expect_targets_close(replayed, fresh, 0.1, "departure");
}

TEST(LayerReplay, ToleranceZeroAndAllMovedReplayNothing) {
  const Seconds now = 10.0;
  const ContainerCount capacity = 6;
  const PeelFixture fx = replay_fixture(now);
  OnionPeelingConfig base;
  const TasResult cold = onion_peel(fx.jobs, capacity, now, base);

  // Tolerance 0: the machinery must stay off, bit-identical to cold.
  PeelReplay exact;
  exact.targets = &cold.targets;
  exact.moved = nullptr;
  exact.tolerance = 0.0;
  OnionPeelingConfig with_exact = base;
  with_exact.replay = &exact;
  const TasResult at_zero = onion_peel(fx.jobs, capacity, now, with_exact);
  EXPECT_EQ(at_zero.replayed_layers, 0);
  EXPECT_EQ(at_zero.probes, cold.probes);
  expect_targets_identical(at_zero, cold, "tolerance-0");

  // Every id moved: replay stops before the first layer, bit-identical.
  std::vector<JobId> moved;
  for (const TasJob& job : fx.jobs) moved.push_back(job.id);
  std::sort(moved.begin(), moved.end());
  PeelReplay all;
  all.targets = &cold.targets;
  all.moved = &moved;
  all.tolerance = 0.2;
  OnionPeelingConfig with_all = base;
  with_all.replay = &all;
  const TasResult all_moved = onion_peel(fx.jobs, capacity, now, with_all);
  EXPECT_EQ(all_moved.replayed_layers, 0);
  EXPECT_EQ(all_moved.probes, cold.probes);
  expect_targets_identical(all_moved, cold, "all-moved");
}

std::vector<PlannerJob> planner_replay_jobs(const UtilityFunction* sigmoid,
                                            const UtilityFunction* linear,
                                            const DistributionEstimator& estimator) {
  std::vector<PlannerJob> jobs;
  for (int j = 0; j < 3; ++j) {
    PlannerJob job;
    job.id = j + 1;
    job.mean_runtime = 10.0;
    job.samples = 0;
    job.set_demand(estimator.remaining_demand(4 + j, 128));
    job.utility = j % 2 == 0 ? sigmoid : linear;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(LayerReplay, PlannerReplaysLayersAcrossConsecutivePasses) {
  // End-to-end through RushPlanner.  The cold peel pushes levels until EDF
  // feasibility is binding, so replay across a time step only certifies
  // when the moved jobs' demand drop covers the elapsed time — the shape
  // real dynamics produce (a replan is triggered by a task finishing, which
  // shrinks that job's eta by far more than capacity * dt).
  RushConfig config;
  config.replan_eta_tolerance = 0.1;
  const SigmoidUtility sigmoid(400.0, 3.0, 0.02);
  const LinearUtility linear(500.0, 2.0, 0.01);
  const auto estimator = make_estimator("gaussian", {});

  // Same inputs at the same timestamp: every layer replays.
  RushPlanner stable(config);
  const auto jobs = planner_replay_jobs(&sigmoid, &linear, *estimator);
  const Plan first = stable.plan(jobs, 4, 0.0);
  EXPECT_EQ(stable.plan_stats().layers_replayed, 0);
  const Plan repeated = stable.plan(jobs, 4, 0.0);
  EXPECT_EQ(stable.plan_stats().layers_replayed, 3);
  ASSERT_EQ(first.entries.size(), repeated.entries.size());
  for (std::size_t i = 0; i < first.entries.size(); ++i) {
    EXPECT_EQ(first.entries[i].eta, repeated.entries[i].eta) << " entry " << i;
  }

  // One job's task finishes between passes (demand shrinks well beyond the
  // tolerance): that job's layer and everything after it re-peel, the
  // prefix before it replays.
  RushPlanner churn(config);
  auto drifting = planner_replay_jobs(&sigmoid, &linear, *estimator);
  churn.plan(drifting, 4, 0.0);
  drifting[0].set_demand(estimator->remaining_demand(3, 128));
  churn.plan(drifting, 4, 1.0);
  EXPECT_EQ(churn.plan_stats().layers_replayed, 1);
}

}  // namespace
}  // namespace rush
