// Speculative execution (Hadoop-style backup attempts, related work [2] of
// the paper): stragglers get duplicated onto idle containers; the first
// attempt to finish wins and the losers are killed immediately.  The
// engine decides the backups, so a speculating run replays from its event
// log like any other; it refuses to snapshot.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/fifo_scheduler.h"
#include "src/common/error.h"
#include "src/engine/replay.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/trace.h"
#include "src/state/snapshot.h"

namespace rush {
namespace {

JobSpec simple_job(const std::string& name, int maps, Seconds task_seconds) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = 0.0;
  spec.budget = 1e5;
  spec.utility_kind = "linear";
  spec.beta = 0.001;
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  return spec;
}

ClusterConfig spec_config(bool speculation, std::uint64_t seed = 3) {
  ClusterConfig config;
  config.nodes = {{4, 1.0}, {2, 5.0}};  // two very slow containers
  config.runtime_noise_sigma = 0.15;
  config.enable_speculation = speculation;
  config.speculation_threshold = 1.4;
  config.seed = seed;
  return config;
}

TEST(Speculation, BackupsRescueStragglersOnSlowNodes) {
  // 12 tasks on 6 containers: the two 3x-slower containers produce
  // stragglers; speculation should cut the makespan.
  const auto makespan_with = [](bool speculation) {
    FifoScheduler scheduler(false);
    EngineSimulation cluster(spec_config(speculation), scheduler);
    cluster.submit(simple_job("straggly", 12, 20.0));
    const auto result = cluster.run();
    EXPECT_TRUE(result.completed);
    return std::make_pair(result.makespan, result.speculative_attempts);
  };
  const auto [slow, no_backups] = makespan_with(false);
  const auto [fast, backups] = makespan_with(true);
  EXPECT_EQ(no_backups, 0);
  EXPECT_GT(backups, 0);
  EXPECT_LT(fast, slow);
}

TEST(Speculation, DisabledMeansNoBackups) {
  FifoScheduler scheduler(false);
  EngineSimulation cluster(spec_config(false), scheduler);
  cluster.submit(simple_job("plain", 20, 10.0));
  const auto result = cluster.run();
  EXPECT_EQ(result.speculative_attempts, 0);
  EXPECT_EQ(result.speculative_kills, 0);
}

TEST(Speculation, EachTaskCompletesExactlyOnce) {
  FifoScheduler scheduler(false);
  EngineSimulation cluster(spec_config(true, 7), scheduler);
  cluster.submit(simple_job("exact", 16, 15.0));
  cluster.submit(simple_job("other", 8, 15.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  // Every backup launched either wins (killing the original) or is killed:
  // kills == attempts that lost.  Both jobs complete with the exact task
  // counts regardless.
  EXPECT_EQ(result.jobs[0].tasks, 16);
  EXPECT_EQ(result.jobs[1].tasks, 8);
  EXPECT_LE(result.speculative_kills, result.speculative_attempts + 0);
  EXPECT_GT(result.speculative_attempts, 0);
}

TEST(Speculation, RespectsMaxAttemptsPerTask) {
  FifoScheduler scheduler(false);
  ClusterConfig config = spec_config(true, 9);
  config.max_attempts_per_task = 1;  // speculation effectively disabled
  EngineSimulation cluster(config, scheduler);
  cluster.submit(simple_job("capped", 12, 20.0));
  const auto result = cluster.run();
  EXPECT_EQ(result.speculative_attempts, 0);
}

TEST(Speculation, WorksTogetherWithFailures) {
  FifoScheduler scheduler(false);
  ClusterConfig config = spec_config(true, 11);
  config.task_failure_probability = 0.2;
  EngineSimulation cluster(config, scheduler);
  cluster.submit(simple_job("chaos", 24, 12.0));
  const auto result = cluster.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.task_failures, 0);
}

TEST(Speculation, DeterministicInSeed) {
  const auto run_once = [] {
    FifoScheduler scheduler(false);
    EngineSimulation cluster(spec_config(true, 13), scheduler);
    cluster.submit(simple_job("det", 15, 18.0));
    const auto result = cluster.run();
    return std::make_pair(result.makespan, result.speculative_attempts);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Speculation, ConfigValidation) {
  FifoScheduler scheduler(false);
  ClusterConfig bad = spec_config(true);
  bad.max_attempts_per_task = 0;
  EXPECT_THROW(EngineSimulation(bad, scheduler), InvalidInput);
  bad = spec_config(true);
  bad.speculation_threshold = 0.0;
  EXPECT_THROW(EngineSimulation(bad, scheduler), InvalidInput);
  bad.speculation_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EngineSimulation(bad, scheduler), InvalidInput);
  EXPECT_THROW(SchedulerEngine(EngineConfig{.capacity = 4, .max_attempts_per_task = 0},
                               scheduler),
               InvalidInput);
}

TEST(Speculation, KillsFollowCreationOrder) {
  // With three attempts per task, a finishing attempt can kill two
  // siblings.  They die in launch order: each kill pushes its container
  // onto the free stack, so the order decides every later container index.
  long multi_kills = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    FifoScheduler scheduler(false);
    ClusterConfig config = spec_config(true, seed);
    config.max_attempts_per_task = 3;
    EngineSimulation cluster(config, scheduler);
    TraceRecorder trace;
    cluster.set_observer(&trace);
    cluster.submit(simple_job("wide", 12, 20.0));
    cluster.submit(simple_job("narrow", 4, 30.0));
    ASSERT_TRUE(cluster.run().completed);

    // started[c]: trace index of the start of the attempt container c runs.
    // previous_start: that index for the previous kill of the current run
    // of consecutive kills.
    std::vector<std::size_t> started(static_cast<std::size_t>(cluster.capacity()), 0);
    bool in_kill_run = false;
    std::size_t previous_start = 0;
    for (std::size_t i = 0; i < trace.events().size(); ++i) {
      const TraceEvent& e = trace.events()[i];
      const auto container = static_cast<std::size_t>(e.container);
      if (e.kind == TraceKind::kTaskStart) started[container] = i;
      if (e.kind != TraceKind::kTaskKilled) {
        in_kill_run = false;
        continue;
      }
      if (in_kill_run) {
        ++multi_kills;
        EXPECT_LT(previous_start, started[container]) << "seed " << seed << " event " << i;
      }
      in_kill_run = true;
      previous_start = started[container];
    }
  }
  EXPECT_GT(multi_kills, 0);
}

/// Collects the engine's accepted events — the in-memory event log.
struct RecordingSink : EngineSink {
  std::vector<EngineEvent> events;
  void on_event(const EngineEvent& event) override { events.push_back(event); }
};

TEST(Speculation, SpeculatingRunReplaysFromItsEventLog) {
  // Backups are engine decisions, so the recorded submissions, completions
  // and failures re-derive every backup and kill.  Killed attempts'
  // outcomes never reach the log.
  long backups = 0;
  long kills = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const char* name : {"RUSH", "EDF", "FIFO", "RRH", "Fair"}) {
      const std::string context = std::string(name) + "/seed=" + std::to_string(seed);
      ClusterConfig config = spec_config(true, seed);
      config.task_failure_probability = 0.1;
      config.audit_incremental_view = true;
      const auto scheduler = make_named_scheduler(name);
      EngineSimulation simulation(config, *scheduler);
      TraceRecorder trace;
      RecordingSink recording;
      simulation.set_observer(&trace);
      simulation.set_sink(&recording);
      simulation.submit(simple_job("a", 12, 20.0));
      JobSpec late = simple_job("b", 8, 15.0);
      late.arrival = 30.0;
      simulation.submit(late);
      const RunResult direct = simulation.run();
      ASSERT_TRUE(direct.completed) << context;
      backups += direct.speculative_attempts;
      kills += direct.speculative_kills;

      const auto fresh = make_named_scheduler(name);
      TraceRecorder replay_trace;
      const RunResult replayed = replay_events(simulation.engine().config(), *fresh,
                                               recording.events, &replay_trace);
      ASSERT_EQ(replay_trace.events().size(), trace.events().size()) << context;
      for (std::size_t i = 0; i < trace.events().size(); ++i) {
        const TraceEvent& x = replay_trace.events()[i];
        const TraceEvent& y = trace.events()[i];
        EXPECT_TRUE(x.time == y.time && x.kind == y.kind && x.job == y.job &&
                    x.container == y.container && x.value == y.value &&
                    x.label == y.label)
            << context << " event " << i;
      }
      EXPECT_EQ(replayed.makespan, direct.makespan) << context;
      EXPECT_EQ(replayed.assignments, direct.assignments) << context;
      EXPECT_EQ(replayed.task_failures, direct.task_failures) << context;
      EXPECT_EQ(replayed.dispatch_waves, direct.dispatch_waves) << context;
      EXPECT_EQ(replayed.speculative_attempts, direct.speculative_attempts) << context;
      EXPECT_EQ(replayed.speculative_kills, direct.speculative_kills) << context;
    }
  }
  EXPECT_GT(backups, 0);
  EXPECT_GT(kills, 0);
}

TEST(Speculation, SpeculatingEngineRefusesSnapshots) {
  // The attempt bookkeeping behind backups (launch times, creation order)
  // is not part of the snapshot layout.
  FifoScheduler scheduler(false);
  SchedulerEngine engine(EngineConfig{.capacity = 4, .enable_speculation = true},
                         scheduler);
  Snapshot snapshot;
  EXPECT_THROW(engine.save_state(snapshot), InvalidInput);

  FifoScheduler other(false);
  SchedulerEngine plain(EngineConfig{.capacity = 4}, other);
  plain.save_state(snapshot);
  EXPECT_THROW(engine.restore_state(snapshot), InvalidInput);
  EXPECT_NO_THROW(plain.restore_state(snapshot));
}

}  // namespace
}  // namespace rush
