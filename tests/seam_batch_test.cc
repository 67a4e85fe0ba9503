// Differential tests for the batched scheduler seam (DESIGN.md §5e).
//
// Across 50 randomized workloads, every scheduler (RUSH + the four
// baselines), speculation on and off, the batched/incremental seam must
// reproduce the legacy per-container seam bit-for-bit: identical event
// traces, identical metrics CSV bytes, identical final utilities.  The
// batched runs keep the incremental-view audit armed the whole time, so
// every dirty-bit refresh is cross-checked against a from-scratch rebuild.
// A determinism regression then pins two batched RUSH runs against each
// other, and a unit test covers ClusterView::find with and without its
// id -> index map.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"

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

struct SeamRun {
  RunResult result;
  TraceRecorder trace;
};

/// One cluster run of the seeded workload.  Lognormal noise keeps distinct
/// events off identical timestamps (collisions are measure-zero), which is
/// what makes the coalesced batched seam event-for-event comparable to the
/// legacy one.
void run_workload(std::uint64_t seed, const std::string& scheduler_name,
                  bool speculation, bool batched, SeamRun& out) {
  Rng knobs(seed * 7919);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(2, 3);  // 6 containers, small but contended
  config.runtime_noise_sigma = 0.3;
  config.task_failure_probability = knobs.uniform() < 0.5 ? 0.08 : 0.0;
  config.enable_speculation = speculation;
  config.seed = seed + 17;
  config.batched_dispatch = batched;
  // The audit is the point of the exercise: force it on regardless of the
  // build type for the batched runs (it never triggers on the legacy seam,
  // which does not touch the incremental view).
  config.audit_incremental_view = batched;

  const auto scheduler = make_named_scheduler(scheduler_name);
  Cluster cluster(config, *scheduler);
  cluster.set_observer(&out.trace);
  for (JobSpec spec : random_workload(seed)) cluster.submit(std::move(spec));
  out.result = cluster.run();
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
  const std::string path_a = dir + "/seam_metrics_a.csv";
  const std::string path_b = dir + "/seam_metrics_b.csv";
  write_metrics_csv(path_a, a);
  write_metrics_csv(path_b, b);
  const std::string bytes = slurp(path_a);
  EXPECT_FALSE(bytes.empty()) << context;
  EXPECT_EQ(bytes, slurp(path_b)) << context;
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---------- the 50-seed x 5-scheduler x speculation matrix ----------

class SeamDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeamDifferentialTest, BatchedSeamMatchesPerContainerSeam) {
  const std::uint64_t seed = GetParam();
  for (const char* scheduler : {"RUSH", "EDF", "FIFO", "RRH", "Fair"}) {
    for (const bool speculation : {false, true}) {
      const std::string context = std::string(scheduler) + "/spec=" +
                                  (speculation ? "on" : "off") + "/seed=" +
                                  std::to_string(seed);
      SeamRun batched;
      run_workload(seed, scheduler, speculation, /*batched=*/true, batched);
      SeamRun legacy;
      run_workload(seed, scheduler, speculation, /*batched=*/false, legacy);

      ASSERT_TRUE(batched.result.completed) << context;
      ASSERT_TRUE(legacy.result.completed) << context;
      expect_traces_identical(batched.trace, legacy.trace, context);
      expect_metrics_bytes_identical(batched.result, legacy.result, context);

      EXPECT_EQ(batched.result.makespan, legacy.result.makespan) << context;
      EXPECT_EQ(batched.result.assignments, legacy.result.assignments) << context;
      EXPECT_EQ(batched.result.scheduling_events, legacy.result.scheduling_events)
          << context;
      ASSERT_EQ(batched.result.jobs.size(), legacy.result.jobs.size()) << context;
      for (std::size_t j = 0; j < batched.result.jobs.size(); ++j) {
        EXPECT_EQ(batched.result.jobs[j].utility, legacy.result.jobs[j].utility)
            << context << " job " << j;
      }

      // Seam accounting.  Batched: the scheduler never sees a from-scratch
      // snapshot, and refreshes happen at most once per notification plus
      // once per dispatch wave.  Legacy: the opposite — snapshots only.
      EXPECT_EQ(batched.result.full_views_built, 0) << context;
      EXPECT_GE(batched.result.view_updates, 1) << context;
      EXPECT_LE(batched.result.view_updates,
                batched.result.scheduling_events + batched.result.dispatch_waves)
          << context;
      EXPECT_GT(legacy.result.full_views_built, 0) << context;
      EXPECT_EQ(legacy.result.view_updates, 0) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeamDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------- batched RUSH determinism ----------

TEST(SeamDeterminism, BatchedRushRunsAreBitReproducible) {
  ExperimentConfig config;
  config.num_jobs = 10;
  config.mean_interarrival = 90.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 3.0;
  config.budget_ratio = 1.5;
  config.noise_sigma = 0.25;
  config.seed = 1234;
  config.nodes = homogeneous_nodes(2, 6);
  config.batched_seam = true;
  config.audit_seam = true;

  TraceRecorder trace_a;
  config.observer = &trace_a;
  const RunResult run_a = run_experiment("RUSH", config);
  TraceRecorder trace_b;
  config.observer = &trace_b;
  const RunResult run_b = run_experiment("RUSH", config);

  ASSERT_TRUE(run_a.completed);
  ASSERT_TRUE(run_b.completed);
  expect_traces_identical(trace_a, trace_b, "batched determinism");
  expect_metrics_bytes_identical(run_a, run_b, "batched determinism");
  EXPECT_EQ(run_a.full_views_built, 0);
}

// ---------- ClusterView::find unit coverage ----------

TEST(ClusterViewFind, UsesIndexWhenPresentAndFallsBackWhenAbsent) {
  ClusterView view;
  for (const JobId id : {2, 5, 9}) {
    JobView jv;
    jv.id = id;
    jv.total_tasks = static_cast<int>(id) * 10;
    view.jobs.push_back(jv);
  }

  // Hand-built views (tests, legacy make_view) carry no index: the linear
  // fallback must still resolve ids.
  ASSERT_TRUE(view.id_to_index.empty());
  ASSERT_NE(view.find(5), nullptr);
  EXPECT_EQ(view.find(5)->total_tasks, 50);
  EXPECT_EQ(view.find(3), nullptr);
  EXPECT_EQ(view.find(-1), nullptr);

  // With the index populated, lookups resolve through it — including misses
  // for ids inside the index range that hold no job.
  view.id_to_index.assign(10, -1);
  view.id_to_index[2] = 0;
  view.id_to_index[5] = 1;
  view.id_to_index[9] = 2;
  ASSERT_NE(view.find(9), nullptr);
  EXPECT_EQ(view.find(9)->total_tasks, 90);
  EXPECT_EQ(view.find(3), nullptr);
  EXPECT_EQ(view.find(42), nullptr);
  JobView* mutable_slot = view.find_mutable(2);
  ASSERT_NE(mutable_slot, nullptr);
  mutable_slot->running_tasks = 7;
  EXPECT_EQ(view.jobs[0].running_tasks, 7);
}

}  // namespace
}  // namespace rush
