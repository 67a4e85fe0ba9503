// Golden scheduler-level traces: runs seeded workloads through the
// simulator under every scheduler and compares one digest per seed against
// constants recorded from the reference simulator that preceded the engine.
//
// Two matrices:
//  - 50 randomized workloads on a small, contended cluster (6 containers,
//    lognormal noise 0.3, failure probability 0.08 on about half the
//    seeds) x RUSH/EDF/FIFO/RRH/Fair x speculation off/on;
//  - the A8 ablation cluster (60 PUMA jobs with measured budgets, 48
//    containers of which half run 2.5x slower) with speculation on and
//    failure probability 0.05, seeds 900-901 x the five schedulers.
//
// Every run's trace events, job records and RunResult counters (makespan,
// events, assignments, failures, waves, speculative attempts and kills)
// fold into one 64-bit FNV-1a digest per seed, over bit patterns, so any
// last-bit drift in a time, a container index, a utility or a counter
// fails the seed.  The incremental-view audit is armed on every run, and
// every speculating run of the contended matrix also replays from its
// recorded event log to the same digest.
//
// To re-record after an intended behaviour change, set every constant to 0
// and copy the digests the failures print.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/engine/replay.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"
#include "src/workload/generator.h"

namespace rush {
namespace {

constexpr const char* kSchedulers[] = {"RUSH", "EDF", "FIFO", "RRH", "Fair"};

// ---------- workloads ----------

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

/// The small contended cluster.  Lognormal noise keeps distinct events off
/// identical timestamps.
ClusterConfig contended_config(std::uint64_t seed, bool speculation) {
  Rng knobs(seed * 7919);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(2, 3);
  config.runtime_noise_sigma = 0.3;
  config.task_failure_probability = knobs.uniform() < 0.5 ? 0.08 : 0.0;
  config.enable_speculation = speculation;
  config.seed = seed + 17;
  config.audit_incremental_view = true;
  return config;
}

const std::vector<Node> kA8Nodes = {{12, 1.0}, {12, 1.0}, {12, 2.5}, {12, 2.5}};

/// bench/ablation_speculation's workload: PUMA mix, budgets 1.5x each job's
/// measured solo benchmark.
std::vector<JobSpec> a8_workload(std::uint64_t seed) {
  const double noise = 0.25;
  WorkloadConfig workload;
  workload.num_jobs = 60;
  workload.budget_ratio = 1.5;
  workload.benchmark_capacity = 48;
  workload.benchmark_speed = budget_calibration(kA8Nodes, noise);
  workload.seed = seed;
  std::vector<JobSpec> specs = generate_workload(workload);
  std::uint64_t bench_seed = seed + 1000003;
  for (JobSpec& spec : specs) {
    const Seconds bench = measure_benchmark(spec, kA8Nodes, noise, bench_seed++);
    apply_sensitivity(spec, spec.sensitivity, 1.5 * bench, spec.priority);
  }
  return specs;
}

ClusterConfig a8_config(std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = kA8Nodes;
  config.runtime_noise_sigma = 0.25;
  config.task_failure_probability = 0.05;
  config.enable_speculation = true;
  config.speculation_threshold = 1.5;
  config.seed = seed + 1;
  config.audit_incremental_view = true;
  return config;
}

// ---------- runs and digests ----------

/// Collects the engine's accepted events — the in-memory event log.
struct RecordingSink : EngineSink {
  std::vector<EngineEvent> events;
  void on_event(const EngineEvent& event) override { events.push_back(event); }
};

struct GoldenRun {
  RunResult result;
  TraceRecorder trace;
  RecordingSink recording;
  EngineConfig engine_config;
};

void run_simulation(const ClusterConfig& config, const std::string& scheduler_name,
                    const std::vector<JobSpec>& specs, GoldenRun& out) {
  const auto scheduler = make_named_scheduler(scheduler_name);
  EngineSimulation simulation(config, *scheduler);
  simulation.set_observer(&out.trace);
  simulation.set_sink(&out.recording);
  for (const JobSpec& spec : specs) simulation.submit(spec);
  out.result = simulation.run();
  out.engine_config = simulation.engine().config();
}

/// 64-bit FNV-1a over the bit patterns of the folded values.
class Digest {
 public:
  void add(std::uint64_t value) {
    hash_ ^= value;
    hash_ *= 0x100000001B3ULL;
  }
  void add_int(long long value) { add(static_cast<std::uint64_t>(value)); }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::string& text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void fold_run(const RunResult& result, const TraceRecorder& trace, Digest& digest) {
  for (const TraceEvent& e : trace.events()) {
    digest.add(e.time);
    digest.add_int(static_cast<int>(e.kind));
    digest.add_int(e.job);
    digest.add_int(e.container);
    digest.add(e.value);
    digest.add(e.label);
  }
  for (const JobRecord& job : result.jobs) {
    digest.add_int(job.id);
    digest.add(job.name);
    digest.add(job.arrival);
    digest.add(job.budget);
    digest.add(job.priority);
    digest.add_int(static_cast<int>(job.sensitivity));
    digest.add(job.completion);
    digest.add(job.utility);
    digest.add(job.best_possible_utility);
    digest.add_int(job.tasks);
  }
  const RunResult& r = result;
  digest.add(r.makespan);
  digest.add_int(r.scheduling_events);
  digest.add_int(r.assignments);
  digest.add_int(r.task_failures);
  digest.add_int(r.dispatch_waves);
  digest.add_int(r.speculative_attempts);
  digest.add_int(r.speculative_kills);
  digest.add_int(r.completed ? 1 : 0);
}

/// Checks that hold for every run, independent of the recorded digests.
void expect_sane(const GoldenRun& run, const std::string& context) {
  const RunResult& r = run.result;
  EXPECT_TRUE(r.completed) << context;
  EXPECT_GE(r.view_updates, 1) << context;
  EXPECT_LE(r.view_updates, r.scheduling_events + r.dispatch_waves) << context;
  EXPECT_LE(r.speculative_kills, r.speculative_attempts) << context;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

// ---------- the 50-seed contended matrix ----------

constexpr std::uint64_t kGoldenContended[50] = {
    0x7c1bc2fda0265b70ULL, 0x3a3d7b51c6d8c771ULL, 0xc4b9221905526d2aULL,
    0xb8fbd74eb30d4a43ULL, 0x5e88bdb2eb5e5233ULL, 0x3cf13a5d0ed0fcaeULL,
    0x26dfe5eab7feabb1ULL, 0xc5575802d7d5e985ULL, 0xbb3ed3577386a0b3ULL,
    0x29ea594d4dafdd96ULL, 0x6644236094c7dfa7ULL, 0x773eb5dd4b425c23ULL,
    0xd5900c10b504f775ULL, 0xe3849d8872d9c34fULL, 0x356ad6d1ff660552ULL,
    0x93603aa287d05c39ULL, 0xf88621dadad83b0ULL, 0x48a87fa4473750eaULL,
    0xa00172881fcc73f8ULL, 0x1ddbab0b1421a842ULL, 0x8345d530654a170ULL,
    0x67029561f76c44faULL, 0x182afd7826efe2cdULL, 0x61701f5c0b59945bULL,
    0x787c3b8f24c30667ULL, 0xa007631dabe59f5cULL, 0x186c0c849d9fb66dULL,
    0x3d5f8de2a8ba1df7ULL, 0x3653319abaaf65d2ULL, 0xeb9a221b0fe3fccfULL,
    0x896c1ab5bb4e29f4ULL, 0x5a0c4c4fd1ee40d6ULL, 0x138fbd8703270a09ULL,
    0x32d6bb01e3afae89ULL, 0xc8cd059f70198662ULL, 0xfa54f909610e8e29ULL,
    0xbf270c06684312f6ULL, 0xfa254af08c53a5b2ULL, 0x180a5551ba193dadULL,
    0xf4d928c40bd8be7ULL, 0xcbfc2c95a5f5e663ULL, 0x2b425f5048230589ULL,
    0x1a505547e2a347cbULL, 0x57765e3651de38f1ULL, 0x78a2777e3ffba5faULL,
    0xa2b4e7ef7ceea74dULL, 0x998ff7817dfc8012ULL, 0x4ea518c8ca1765dcULL,
    0x81b0dcd7e6d96947ULL, 0x3b4e76efc0fca621ULL,
};

class GoldenTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenTraceTest, DigestMatchesRecordedTraces) {
  const std::uint64_t seed = GetParam();
  const std::vector<JobSpec> specs = random_workload(seed);
  Digest digest;
  for (const char* scheduler : kSchedulers) {
    for (const bool speculation : {false, true}) {
      const std::string context = std::string(scheduler) + "/spec=" +
                                  (speculation ? "on" : "off") + "/seed=" +
                                  std::to_string(seed);
      GoldenRun run;
      run_simulation(contended_config(seed, speculation), scheduler, specs, run);
      expect_sane(run, context);
      if (!speculation) {
        EXPECT_EQ(run.result.speculative_attempts, 0) << context;
      }
      fold_run(run.result, run.trace, digest);
      if (speculation) {
        // Backups are engine decisions: the recorded events re-derive them.
        const auto fresh = make_named_scheduler(scheduler);
        TraceRecorder replay_trace;
        const RunResult replayed = replay_events(run.engine_config, *fresh,
                                                 run.recording.events, &replay_trace);
        Digest direct;
        fold_run(run.result, run.trace, direct);
        Digest replay;
        fold_run(replayed, replay_trace, replay);
        EXPECT_EQ(replay.value(), direct.value()) << context << " replay";
      }
    }
  }
  EXPECT_EQ(digest.value(), kGoldenContended[seed - 1])
      << "seed " << seed << " digest " << hex(digest.value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenTraceTest, ::testing::Range<std::uint64_t>(1, 51));

// ---------- the A8 straggler cluster ----------

constexpr std::uint64_t kGoldenA8[2] = {0x358511ea0cc0e8f4ULL, 0x7f3fd60963ce6054ULL};

class GoldenTraceA8Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenTraceA8Test, DigestMatchesRecordedTraces) {
  const std::uint64_t seed = GetParam();
  const std::vector<JobSpec> specs = a8_workload(seed);
  Digest digest;
  for (const char* scheduler : kSchedulers) {
    const std::string context = std::string(scheduler) + "/a8/seed=" + std::to_string(seed);
    GoldenRun run;
    run_simulation(a8_config(seed), scheduler, specs, run);
    expect_sane(run, context);
    EXPECT_GT(run.result.speculative_attempts, 0) << context;
    EXPECT_GT(run.result.task_failures, 0) << context;
    fold_run(run.result, run.trace, digest);
  }
  EXPECT_EQ(digest.value(), kGoldenA8[seed - 900])
      << "seed " << seed << " digest " << hex(digest.value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenTraceA8Test,
                         ::testing::Values<std::uint64_t>(900, 901));

// ---------- RUSH determinism through the experiment harness ----------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string metrics_csv_bytes(const RunResult& result, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/golden_trace_" + name + ".csv";
  {
    CsvWriter csv(path, {"job", "name", "completion", "utility", "latency"});
    for (const JobRecord& job : result.jobs) {
      csv.add_row({std::to_string(job.id), job.name, std::to_string(job.completion),
                   std::to_string(job.utility), std::to_string(job.latency())});
    }
  }
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(SeamDeterminism, RushRunsAreBitReproducible) {
  ExperimentConfig config;
  config.num_jobs = 10;
  config.mean_interarrival = 90.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 3.0;
  config.budget_ratio = 1.5;
  config.noise_sigma = 0.25;
  config.seed = 1234;
  config.nodes = homogeneous_nodes(2, 6);
  config.audit_seam = true;

  TraceRecorder trace_a;
  config.observer = &trace_a;
  const RunResult run_a = run_experiment("RUSH", config);
  TraceRecorder trace_b;
  config.observer = &trace_b;
  const RunResult run_b = run_experiment("RUSH", config);

  ASSERT_TRUE(run_a.completed);
  ASSERT_TRUE(run_b.completed);
  Digest digest_a;
  fold_run(run_a, trace_a, digest_a);
  Digest digest_b;
  fold_run(run_b, trace_b, digest_b);
  EXPECT_EQ(digest_a.value(), digest_b.value());
  const std::string bytes = metrics_csv_bytes(run_a, "a");
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, metrics_csv_bytes(run_b, "b"));
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

  // Hand-built views carry no index: the linear fallback must still
  // resolve ids.
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
