// Exactness of the hinted onion peel (DESIGN.md §5d).
//
// Replays drifting workloads pass-by-pass through a RushPlanner, whose peel
// always starts from the previous pass's hint, with the invariant auditor
// armed the whole time.  Each pass is also peeled without a hint — the cold
// k-section, the reference — on the same inputs, and the test asserts the
// hint contract:
//   (a) every TasTarget field of the hinted peel equals the hint-less
//       peel's exactly, and so do the planner's entries,
//   (b) every audit_wcde/audit_tas/audit_mapping invariant holds on the
//       hinted path (RushPlanner::plan throws on any audit failure),
//   (c) the hinted peel never spends more probes than the hint-less one,
//   (d) a full two-run Experiment is bit-reproducible (identical event
//       traces and metrics CSVs), mirroring planner_reuse_test.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"

namespace rush {
namespace {

/// One live job of the replayed workload; owns its utility so pointers stay
/// stable while jobs come and go.
struct SimJob {
  PlannerJob planner_job;
  std::unique_ptr<UtilityFunction> utility;
  double mean = 0.0;
};

std::unique_ptr<SimJob> make_sim_job(Rng& rng, JobId id, Seconds now) {
  auto job = std::make_unique<SimJob>();
  const Seconds budget = now + rng.uniform(40.0, 500.0);
  const double priority = rng.uniform(0.5, 5.0);
  const double beta = rng.uniform(0.01, 0.5);
  if (rng.uniform_int(0, 2) == 0) {
    job->utility = std::make_unique<LinearUtility>(budget, priority, beta);
  } else {
    job->utility = std::make_unique<SigmoidUtility>(budget, priority, beta);
  }
  job->mean = rng.uniform(30.0, 800.0);
  job->planner_job.id = id;
  job->planner_job.mean_runtime = rng.uniform(2.0, 30.0);
  job->planner_job.samples = static_cast<std::size_t>(rng.uniform_int(0, 60));
  job->planner_job.utility = job->utility.get();
  return job;
}

void refresh_demand(Rng& rng, SimJob& job) {
  const double sigma = rng.uniform(0.05, 0.3) * job.mean;
  job.planner_job.set_demand(
      QuantizedPmf::gaussian(job.mean, sigma, 128, job.mean * 3.5 / 128.0));
}

void expect_targets_identical(const TasResult& got, const TasResult& want,
                              const std::string& label) {
  ASSERT_EQ(got.targets.size(), want.targets.size()) << label;
  for (std::size_t i = 0; i < want.targets.size(); ++i) {
    const TasTarget& g = got.targets[i];
    const TasTarget& e = want.targets[i];
    EXPECT_EQ(g.id, e.id) << label << " layer " << i;
    EXPECT_EQ(g.mapping_deadline, e.mapping_deadline) << label << " layer " << i;
    EXPECT_EQ(g.target_completion, e.target_completion) << label << " layer " << i;
    EXPECT_EQ(g.utility_level, e.utility_level) << label << " layer " << i;
    EXPECT_EQ(g.layer, e.layer) << label << " layer " << i;
    EXPECT_EQ(g.impossible, e.impossible) << label << " layer " << i;
  }
  EXPECT_EQ(got.horizon, want.horizon) << label;
}

class PeelWarmStartTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeelWarmStartTest, HintedPeelEqualsHintlessPeel) {
  Rng rng(GetParam() * 7919 + 17);
  const ContainerCount capacity = 2 + static_cast<int>(rng.uniform_int(0, 14));
  Seconds now = rng.uniform(0.0, 200.0);
  JobId next_id = 0;

  std::vector<std::unique_ptr<SimJob>> sim;
  const int initial = 2 + static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < initial; ++i) {
    sim.push_back(make_sim_job(rng, next_id++, now));
    refresh_demand(rng, *sim.back());
  }

  RushConfig config;
  config.audit_invariants = true;  // (b): throw on any broken invariant
  RushPlanner planner(config);
  OnionPeelingConfig peel_config;
  peel_config.tolerance = config.peel_tolerance;
  peel_config.compensate_runtime = config.compensate_runtime;
  // The hint chain the planner keeps internally, mirrored here so the
  // hinted peel's targets can be compared field by field.
  PeelHint hint;

  for (int pass = 0; pass < 30 && !sim.empty(); ++pass) {
    // One "scheduling event" worth of drift: time advances, demand drains
    // at roughly the cluster rate with multiplicative jitter, finished jobs
    // leave, and the occasional arrival re-shuffles the layers — exactly
    // the hint-invalidation cases the warm path must survive.
    const Seconds dt = rng.uniform(1.0, 10.0);
    now += dt;
    double total = 0.0;
    for (const auto& job : sim) total += job->mean;
    for (auto& job : sim) {
      const double share = static_cast<double>(capacity) * job->mean / total;
      job->mean -= share * dt * rng.uniform(0.6, 1.4);
      job->mean *= rng.uniform(0.97, 1.03);  // estimator churn
    }
    sim.erase(std::remove_if(sim.begin(), sim.end(),
                             [](const std::unique_ptr<SimJob>& j) {
                               return j->mean < 4.0;
                             }),
              sim.end());
    if (rng.uniform(0.0, 1.0) < 0.2 || sim.empty()) {
      sim.push_back(make_sim_job(rng, next_id++, now));
    }
    for (auto& job : sim) refresh_demand(rng, *job);

    std::vector<PlannerJob> jobs;
    for (const auto& job : sim) jobs.push_back(job->planner_job);
    const Plan plan = planner.plan(jobs, capacity, now);
    const std::string label =
        "seed " + std::to_string(GetParam()) + " pass " + std::to_string(pass);

    // The peel inputs exactly as the planner builds them: job order, the
    // eta it solved, the job's mean runtime.
    std::vector<TasJob> tas_jobs;
    for (const PlannerJob& job : jobs) {
      const PlanEntry* entry = plan.find(job.id);
      ASSERT_NE(entry, nullptr) << label;
      tas_jobs.push_back({job.id, entry->eta, job.mean_runtime, job.utility});
    }
    const TasResult hintless = onion_peel(tas_jobs, capacity, now, peel_config);
    OnionPeelingConfig hinted_config = peel_config;
    if (!hint.empty()) hinted_config.warm_hint = &hint;
    const TasResult hinted = onion_peel(tas_jobs, capacity, now, hinted_config);
    hint = hinted.hint;

    // (a) Bit-exact agreement, target by target and entry by entry.
    expect_targets_identical(hinted, hintless, label);
    EXPECT_EQ(hinted.probes, plan.peel_probes) << label << ": hint chain diverged";
    for (const TasTarget& t : hintless.targets) {
      const PlanEntry* entry = plan.find(t.id);
      ASSERT_NE(entry, nullptr) << label;
      EXPECT_EQ(entry->target_completion, t.target_completion) << label;
      EXPECT_EQ(entry->utility_level, t.utility_level) << label;
      EXPECT_EQ(entry->impossible, t.impossible) << label;
    }

    // (c) The hinted search must never do more work than the cold one.
    EXPECT_LE(plan.peel_probes, hintless.probes) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeelWarmStartTest,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------- Plan::find binary search vs. the old linear scan ----------

const PlanEntry* linear_find(const Plan& plan, JobId id) {
  for (const PlanEntry& e : plan.entries) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

TEST(PlanFind, BinarySearchAgreesWithLinearScan) {
  Rng rng(20260806);
  for (int round = 0; round < 100; ++round) {
    Plan plan;
    // Sorted, strictly increasing ids with random gaps — the invariant
    // RushPlanner::plan guarantees for Plan::entries.
    JobId id = rng.uniform_int(0, 3);
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < n; ++i) {
      PlanEntry entry;
      entry.id = id;
      entry.utility_level = rng.uniform(0.0, 5.0);
      plan.entries.push_back(entry);
      id += 1 + rng.uniform_int(0, 4);
    }
    for (JobId probe = -1; probe <= id + 1; ++probe) {
      const PlanEntry* got = plan.find(probe);
      const PlanEntry* want = linear_find(plan, probe);
      ASSERT_EQ(got, want) << "round " << round << " id " << probe;
    }
  }
}

// ---------- (d) Experiment-level determinism of the hinted path ----------

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

TEST(PeelWarmStart, ExperimentRunsAreBitReproducible) {
  ExperimentConfig config;
  config.num_jobs = 12;
  config.mean_interarrival = 90.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 3.0;
  config.budget_ratio = 1.5;
  config.noise_sigma = 0.25;
  config.seed = 4242;
  config.nodes = homogeneous_nodes(2, 6);  // 12 containers
  config.rush.audit_invariants = true;

  TraceRecorder trace_a, trace_b;
  config.observer = &trace_a;
  const RunResult a = run_experiment("RUSH", config);
  config.observer = &trace_b;
  const RunResult b = run_experiment("RUSH", config);

  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.plan_peel_probes, b.plan_peel_probes);
  EXPECT_EQ(a.plan_warm_layers, b.plan_warm_layers);

  ASSERT_EQ(trace_a.events().size(), trace_b.events().size());
  for (std::size_t i = 0; i < trace_a.events().size(); ++i) {
    const TraceEvent& x = trace_a.events()[i];
    const TraceEvent& y = trace_b.events()[i];
    EXPECT_EQ(x.time, y.time) << "event " << i;
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.job, y.job) << "event " << i;
    EXPECT_EQ(x.container, y.container) << "event " << i;
    EXPECT_EQ(x.value, y.value) << "event " << i;
    EXPECT_EQ(x.label, y.label) << "event " << i;
  }

  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/peel_warm_metrics_a.csv";
  const std::string path_b = dir + "/peel_warm_metrics_b.csv";
  write_metrics_csv(path_a, a);
  write_metrics_csv(path_b, b);
  EXPECT_EQ(slurp(path_a), slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace rush
