// Differential tests for the event-driven scheduler engine (DESIGN.md §5j).
//
// Two guarantees, each across a randomized-workload matrix with the
// incremental-view audit armed (tests/golden_trace_test.cc pins the
// simulated traces themselves):
//
//  2. Record/replay: feeding the recorded event log of a run through a
//     fresh engine re-derives the same traces/metrics byte-for-byte
//     (50-seed matrix, failures included).
//  3. Crash recovery: for EVERY wave boundary of a run, snapshotting at
//     that wave, restoring into a fresh engine+scheduler and replaying the
//     event-log tail yields a byte-identical trace suffix.
//
// Unit coverage for the wire/event/log/snapshot containers rides along.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/common/wire.h"
#include "src/engine/engine.h"
#include "src/engine/event_log.h"
#include "src/engine/replay.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"
#include "src/state/snapshot.h"

namespace rush {
namespace {

// ---------- workload + run helpers (golden_trace_test idioms) ----------

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

/// Failure probability of the seed's run: 0.08 on about half the seeds.
double failure_p_for(std::uint64_t seed) {
  Rng knobs(seed * 7919);
  return knobs.uniform() < 0.5 ? 0.08 : 0.0;
}

/// Collects the engine's accepted events — the in-memory write-ahead log.
struct RecordingSink : EngineSink {
  std::vector<EngineEvent> events;
  void on_event(const EngineEvent& event) override { events.push_back(event); }
};

struct EngineRun {
  RunResult result;
  TraceRecorder trace;
  RecordingSink recording;
};

void run_engine(std::uint64_t seed, const std::string& scheduler_name, EngineRun& out) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(2, 3);  // 6 containers, small but contended
  config.runtime_noise_sigma = 0.3;
  config.task_failure_probability = failure_p_for(seed);
  config.seed = seed + 17;
  config.audit_incremental_view = true;
  const auto scheduler = make_named_scheduler(scheduler_name);
  EngineSimulation simulation(config, *scheduler);
  simulation.set_observer(&out.trace);
  simulation.set_sink(&out.recording);
  for (JobSpec spec : random_workload(seed)) simulation.submit(std::move(spec));
  out.result = simulation.run();
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

void expect_traces_identical(const std::vector<TraceEvent>& a,
                             const std::vector<TraceEvent>& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << context << " event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << context << " event " << i;
    EXPECT_EQ(a[i].job, b[i].job) << context << " event " << i;
    EXPECT_EQ(a[i].container, b[i].container) << context << " event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << context << " event " << i;
    EXPECT_EQ(a[i].label, b[i].label) << context << " event " << i;
  }
}

void expect_metrics_bytes_identical(const RunResult& a, const RunResult& b,
                                    const std::string& context) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/engine_metrics_a.csv";
  const std::string path_b = dir + "/engine_metrics_b.csv";
  write_metrics_csv(path_a, a);
  write_metrics_csv(path_b, b);
  const std::string bytes = slurp(path_a);
  EXPECT_FALSE(bytes.empty()) << context;
  EXPECT_EQ(bytes, slurp(path_b)) << context;
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

class EngineDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

// ---------- 2. record/replay through the event log, 50-seed matrix ----------

TEST_P(EngineDifferentialTest, ReplayedEventLogMatchesDirectRun) {
  const std::uint64_t seed = GetParam();
  for (const char* scheduler : {"RUSH", "FIFO"}) {
    const std::string context =
        std::string(scheduler) + "/replay/seed=" + std::to_string(seed);
    EngineRun direct;
    run_engine(seed, scheduler, direct);
    ASSERT_TRUE(direct.result.completed) << context;
    ASSERT_FALSE(direct.recording.events.empty()) << context;

    // Round-trip the recording through the on-disk log format.
    const std::string log_path = ::testing::TempDir() + "/engine_replay_test.evlog";
    {
      EventLogWriter log(log_path);
      for (const EngineEvent& event : direct.recording.events) log.append(event);
    }
    const std::vector<EngineEvent> events = read_event_log(log_path);
    std::remove(log_path.c_str());
    ASSERT_EQ(events.size(), direct.recording.events.size()) << context;

    const auto fresh = make_named_scheduler(scheduler);
    TraceRecorder replay_trace;
    const RunResult replayed = replay_events(
        EngineConfig{.capacity = 6, .audit_view = true}, *fresh, events, &replay_trace);

    expect_traces_identical(replay_trace.events(), direct.trace.events(), context);
    expect_metrics_bytes_identical(replayed, direct.result, context);
    EXPECT_EQ(replayed.assignments, direct.result.assignments) << context;
    EXPECT_EQ(replayed.dispatch_waves, direct.result.dispatch_waves) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------- 3. kill-at-every-wave snapshot/restore ----------

/// Event indexes at which a wave boundary falls: every i where the stream
/// time strictly advances (plus the end of the stream).  Snapshots are only
/// taken at flushed boundaries, so these are exactly the legal kill points.
std::vector<std::size_t> wave_boundaries(const std::vector<EngineEvent>& events) {
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time > events[i - 1].time) cuts.push_back(i);
  }
  cuts.push_back(events.size());
  return cuts;
}

class EngineSnapshotTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineSnapshotTest, RestoreAtEveryWaveResumesBitIdentically) {
  const std::uint64_t seed = GetParam();
  EngineRun direct;
  run_engine(seed, "RUSH", direct);
  ASSERT_TRUE(direct.result.completed);
  const std::vector<EngineEvent>& events = direct.recording.events;

  for (const std::size_t cut : wave_boundaries(events)) {
    const std::string context =
        "seed=" + std::to_string(seed) + "/cut=" + std::to_string(cut);

    // "Crash" at this wave: replay the prefix, flush, snapshot, drop the
    // engine.  The prefix trace must match the direct run's head.
    const auto before = make_named_scheduler("RUSH");
    TraceRecorder prefix_trace;
    Snapshot snapshot;
    {
      SchedulerEngine engine(EngineConfig{.capacity = 6, .audit_view = true}, *before);
      engine.set_observer(&prefix_trace);
      for (std::size_t i = 0; i < cut; ++i) engine.process(events[i]);
      engine.flush();
      engine.save_state(snapshot);
    }
    const std::size_t prefix_len = prefix_trace.events().size();
    ASSERT_LE(prefix_len, direct.trace.events().size()) << context;
    expect_traces_identical(
        prefix_trace.events(),
        {direct.trace.events().begin(), direct.trace.events().begin() + prefix_len},
        context + "/prefix");

    // Serialize + parse: restore from the bytes a crashed daemon would read.
    const Snapshot restored_snapshot = Snapshot::parse(snapshot.serialize());

    // Resume: fresh scheduler + engine, restore, replay the log tail.  The
    // resumed trace suffix must be byte-identical to the direct run's tail.
    const auto after = make_named_scheduler("RUSH");
    SchedulerEngine resumed(EngineConfig{.capacity = 6, .audit_view = true}, *after);
    TraceRecorder suffix_trace;
    resumed.set_observer(&suffix_trace);
    restore_and_replay(resumed, restored_snapshot, events, cut);

    expect_traces_identical(
        suffix_trace.events(),
        {direct.trace.events().begin() + prefix_len, direct.trace.events().end()},
        context + "/suffix");
    const RunResult resumed_result = engine_run_result(resumed);
    ASSERT_TRUE(resumed_result.completed) << context;
    expect_metrics_bytes_identical(resumed_result, direct.result, context);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSnapshotTest,
                         ::testing::Values<std::uint64_t>(3, 11, 27));

// ---------- unit coverage: wire / events / log / snapshot ----------

TEST(WireFormat, PrimitivesRoundTripBitExactly) {
  WireWriter out;
  out.put_u8(0xAB);
  out.put_u32(0xDEADBEEF);
  out.put_u64(0x0123456789ABCDEFull);
  out.put_i64(-42);
  out.put_bool(true);
  out.put_double(0.1);  // not exactly representable: bit pattern must survive
  out.put_string("hello\0world");
  WireReader in(out.buffer());
  EXPECT_EQ(in.get_u8(), 0xAB);
  EXPECT_EQ(in.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.get_i64(), -42);
  EXPECT_TRUE(in.get_bool());
  EXPECT_EQ(in.get_double(), 0.1);
  EXPECT_EQ(in.get_string(), "hello");
  EXPECT_NO_THROW(in.expect_end("test"));
  EXPECT_THROW(in.get_u8(), InvalidInput);
}

TEST(EngineEvents, SerializeDeserializeRoundTrip) {
  JobConfig job;
  job.name = "wordcount-17";
  job.budget = 240.0;
  job.priority = 3.0;
  job.beta = 0.05;
  job.utility_kind = "sigmoid";
  job.maps = 40;
  job.reduces = 1;
  job.task_seconds = 55.0;
  job.arrival = 12.5;
  job.sensitivity = Sensitivity::kTimeCritical;

  const std::vector<EngineEvent> events = {
      make_job_submitted(12.5, 7, job),
      make_task_finished(19.25, 3, 6.75),
      make_container_freed(21.0, 5, 1.5),
      make_snapshot_requested(30.0),
  };
  const std::vector<EngineEvent> parsed = deserialize_events(serialize_events(events));
  ASSERT_EQ(parsed.size(), events.size());
  EXPECT_EQ(parsed[0].kind, EngineEvent::Kind::kJobSubmitted);
  EXPECT_EQ(parsed[0].job_id, 7);
  EXPECT_EQ(parsed[0].job.name, "wordcount-17");
  EXPECT_EQ(parsed[0].job.maps, 40);
  EXPECT_EQ(parsed[0].job.sensitivity, Sensitivity::kTimeCritical);
  EXPECT_EQ(parsed[1].kind, EngineEvent::Kind::kTaskFinished);
  EXPECT_EQ(parsed[1].container, 3);
  EXPECT_EQ(parsed[1].runtime, 6.75);
  EXPECT_EQ(parsed[2].kind, EngineEvent::Kind::kContainerFreed);
  EXPECT_EQ(parsed[2].wasted, 1.5);
  EXPECT_EQ(parsed[3].kind, EngineEvent::Kind::kSnapshotRequested);
  EXPECT_EQ(parsed[3].time, 30.0);
}

TEST(EventLog, TornTailIsDroppedAndCorruptionElsewhereThrows) {
  const std::vector<EngineEvent> events = {
      make_task_finished(1.0, 0, 5.0),
      make_task_finished(2.0, 1, 6.0),
  };
  const std::string bytes = serialize_events(events);

  // A torn final record (crash mid-append) is silently dropped...
  const std::string torn = bytes.substr(0, bytes.size() - 3);
  const std::string log_path = ::testing::TempDir() + "/torn.evlog";
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  const std::vector<EngineEvent> recovered = read_event_log(log_path);
  std::remove(log_path.c_str());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].runtime, 5.0);

  // ...but strict parsing rejects it, as does a flipped payload byte.
  EXPECT_THROW(deserialize_events(torn), InvalidInput);
  std::string corrupt = bytes;
  corrupt[6] ^= 0x01;
  EXPECT_THROW(deserialize_events(corrupt), InvalidInput);
}

TEST(SnapshotContainer, RoundTripsAndRejectsCorruption) {
  Snapshot snapshot;
  snapshot.set("engine", std::string("\x01\x00raw", 5));
  snapshot.set("scheduler", "blob");
  const std::string bytes = snapshot.serialize();

  const Snapshot parsed = Snapshot::parse(bytes);
  EXPECT_EQ(parsed.get("engine"), snapshot.get("engine"));
  EXPECT_EQ(parsed.get("scheduler"), "blob");
  EXPECT_THROW(parsed.get("missing"), InvalidInput);
  const std::vector<std::string> names = parsed.section_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "engine");  // sorted: deterministic serialization
  EXPECT_EQ(parsed.serialize(), bytes);

  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x40;
  EXPECT_THROW(Snapshot::parse(corrupt), InvalidInput);
  EXPECT_THROW(Snapshot::parse(std::string_view(bytes).substr(0, 10)), InvalidInput);
}

TEST(SnapshotFile, WriteThenReadBack) {
  Snapshot snapshot;
  snapshot.set("engine", "state");
  const std::string path = ::testing::TempDir() + "/roundtrip.rushsnap";
  const std::size_t written = snapshot.write_file(path);
  EXPECT_GT(written, 0u);
  const Snapshot loaded = Snapshot::read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.get("engine"), "state");
}

TEST(ViewDigest, DistinguishesSchedulerObservableChanges) {
  ClusterView a;
  a.now = 10.0;
  a.capacity = 6;
  a.free_containers = 2;
  JobView jv;
  jv.id = 1;
  jv.arrival = 3.0;
  jv.total_tasks = 4;
  a.jobs.push_back(jv);
  ClusterView b = a;
  EXPECT_EQ(view_digest(a), view_digest(b));
  b.jobs[0].completed_tasks = 1;
  EXPECT_NE(view_digest(a), view_digest(b));
}

}  // namespace
}  // namespace rush
