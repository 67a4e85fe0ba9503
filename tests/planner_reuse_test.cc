// Differential tests for the planner's cross-pass reuse: across randomized
// workloads, a planner's first pass, its second pass (which reuses every
// job's WCDE result and starts its peel from the first pass's hint) and its
// passes after single-job mutations must equal a fresh planner's Plan bit
// for bit — with the invariant auditor armed the whole time.  A determinism
// regression then pins the full Experiment pipeline: two runs with the same
// seed yield byte-identical event-trace and metrics CSVs.

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
#include "src/workload/job_template.h"

namespace rush {
namespace {

struct Workload {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
  ContainerCount capacity = 1;
  Seconds now = 0.0;
  double theta = 0.9;
  double delta = 0.7;
};

Workload random_workload(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.theta = rng.uniform(0.55, 0.95);
  w.delta = rng.uniform(0.0, 1.2);
  w.now = rng.uniform(0.0, 500.0);
  w.capacity = 1 + static_cast<int>(rng.uniform_int(0, 47));
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 39));
  for (JobId i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 2)) {
      case 0:
        w.utilities.push_back(std::make_unique<LinearUtility>(
            w.now + rng.uniform(10.0, 400.0), rng.uniform(0.5, 5.0),
            rng.uniform(0.01, 0.5)));
        break;
      case 1:
        w.utilities.push_back(std::make_unique<SigmoidUtility>(
            w.now + rng.uniform(10.0, 400.0), rng.uniform(0.5, 5.0),
            rng.uniform(0.01, 0.5)));
        break;
      default:
        w.utilities.push_back(std::make_unique<ConstantUtility>(rng.uniform(0.5, 5.0)));
    }
    PlannerJob job;
    job.id = i;
    const double mean = rng.uniform(20.0, 2000.0);
    const std::size_t bins = rng.uniform_int(0, 1) == 0 ? 128 : 256;
    job.set_demand(QuantizedPmf::gaussian(mean, rng.uniform(0.0, 0.4) * mean, bins,
                                          mean * 3.5 / static_cast<double>(bins)));
    job.mean_runtime = rng.uniform(1.0, 60.0);
    job.samples = static_cast<std::size_t>(rng.uniform_int(0, 100));
    job.utility = w.utilities.back().get();
    w.jobs.push_back(std::move(job));
  }
  return w;
}

RushConfig planner_config(const Workload& w) {
  RushConfig config;
  config.theta = w.theta;
  config.delta = w.delta;
  config.adaptive_delta = true;  // exercise per-job deltas too
  config.audit_invariants = true;
  return config;
}

// Bit-for-bit equality of two plans.  EXPECT_EQ on doubles is exact
// comparison, which is the point: reuse must not move the plan by one ulp
// from a fresh planner's answer.  Probe counts are not compared: a
// planner's later passes start their peel from the previous pass's hint and
// spend fewer probes on the same plan.
void expect_plans_identical(const Plan& got, const Plan& want,
                            const std::string& label) {
  EXPECT_EQ(got.computed_at, want.computed_at) << label;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    const PlanEntry& g = got.entries[i];
    const PlanEntry& e = want.entries[i];
    EXPECT_EQ(g.id, e.id) << label << " entry " << i;
    EXPECT_EQ(g.eta, e.eta) << label << " entry " << i;
    EXPECT_EQ(g.target_completion, e.target_completion) << label << " entry " << i;
    EXPECT_EQ(g.utility_level, e.utility_level) << label << " entry " << i;
    EXPECT_EQ(g.impossible, e.impossible) << label << " entry " << i;
    EXPECT_EQ(g.desired_containers, e.desired_containers) << label << " entry " << i;
  }
}

class PlannerReuseTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerReuseTest, ReusedPassesMatchAFreshPlanner) {
  const Workload w = random_workload(GetParam());
  const RushPlanner reference(planner_config(w));
  const Plan want = reference.plan(w.jobs, w.capacity, w.now);

  const RushPlanner planner(planner_config(w));
  // The first pass runs the same (hint-less) search as the reference, so it
  // must also spend the same probes.  The second reuses every job's WCDE
  // result and starts its peel from the first pass's hint.
  const Plan first = planner.plan(w.jobs, w.capacity, w.now);
  expect_plans_identical(first, want, "first pass");
  EXPECT_EQ(first.peel_probes, want.peel_probes);
  expect_plans_identical(planner.plan(w.jobs, w.capacity, w.now), want, "second pass");
  const PlanStats stats = planner.plan_stats();
  EXPECT_EQ(stats.wcde_cache_hits, static_cast<long>(w.jobs.size()));
  EXPECT_EQ(stats.wcde_cache_misses, static_cast<long>(w.jobs.size()));
}

TEST_P(PlannerReuseTest, SingleJobMutationMatchesAFreshPlanner) {
  // The feedback-cycle common case: one container event changes one job's
  // PMF; every other job's WCDE result is reused.  The mutated-pass plan
  // must equal a fresh planner's answer on the mutated inputs.
  Workload w = random_workload(GetParam() + 5000);
  const RushPlanner planner(planner_config(w));
  planner.plan(w.jobs, w.capacity, w.now);  // fill the memo

  Rng rng(GetParam() + 9999);
  for (int event = 0; event < 5 && !w.jobs.empty(); ++event) {
    auto& job =
        w.jobs[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(w.jobs.size()) - 1))];
    const double mean = rng.uniform(20.0, 2000.0);
    job.set_demand(QuantizedPmf::gaussian(mean, rng.uniform(0.05, 0.4) * mean, 128,
                                          mean * 3.5 / 128.0));
    job.samples += 1;

    const RushPlanner reference(planner_config(w));
    expect_plans_identical(planner.plan(w.jobs, w.capacity, w.now),
                           reference.plan(w.jobs, w.capacity, w.now),
                           "event " + std::to_string(event));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerReuseTest,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------- Experiment-level determinism regression ----------

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

void expect_traces_identical(const TraceRecorder& a, const TraceRecorder& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.time, y.time) << "event " << i;
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.job, y.job) << "event " << i;
    EXPECT_EQ(x.container, y.container) << "event " << i;
    EXPECT_EQ(x.value, y.value) << "event " << i;
    EXPECT_EQ(x.label, y.label) << "event " << i;
  }
}

TEST(PlannerDeterminism, ExperimentRunsAreBitReproducible) {
  // Guards the Simulator's sequence-number tie-break (and everything else in
  // the pipeline) against hidden state: the planner's memo, peel hint and
  // scratch buffers carry across passes but must not perturb one bit of the
  // event trace or the metrics.
  ExperimentConfig config;
  config.num_jobs = 12;
  config.mean_interarrival = 90.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 3.0;
  config.budget_ratio = 1.5;
  config.noise_sigma = 0.25;
  config.seed = 77;
  config.nodes = homogeneous_nodes(2, 6);  // 12 containers

  TraceRecorder trace_a;
  config.observer = &trace_a;
  const RunResult run_a = run_experiment("RUSH", config);
  TraceRecorder trace_b;
  config.observer = &trace_b;
  const RunResult run_b = run_experiment("RUSH", config);

  ASSERT_TRUE(run_a.completed);
  ASSERT_TRUE(run_b.completed);
  expect_traces_identical(trace_a, trace_b);

  // The CSV artefacts (event trace + per-job metrics) must be byte-equal.
  const std::string dir = ::testing::TempDir();
  const std::string trace_a_csv = dir + "/determinism_trace_a.csv";
  const std::string trace_b_csv = dir + "/determinism_trace_b.csv";
  const std::string metrics_a_csv = dir + "/determinism_metrics_a.csv";
  const std::string metrics_b_csv = dir + "/determinism_metrics_b.csv";
  trace_a.write_csv(trace_a_csv);
  trace_b.write_csv(trace_b_csv);
  write_metrics_csv(metrics_a_csv, run_a);
  write_metrics_csv(metrics_b_csv, run_b);
  const std::string trace_bytes = slurp(trace_a_csv);
  EXPECT_FALSE(trace_bytes.empty());
  EXPECT_EQ(trace_bytes, slurp(trace_b_csv));
  const std::string metrics_bytes = slurp(metrics_a_csv);
  EXPECT_FALSE(metrics_bytes.empty());
  EXPECT_EQ(metrics_bytes, slurp(metrics_b_csv));
  for (const std::string& path :
       {trace_a_csv, trace_b_csv, metrics_a_csv, metrics_b_csv}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace rush
