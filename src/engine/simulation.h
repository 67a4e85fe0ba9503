// Virtual-clock event source: the repository's simulator, built on the
// SchedulerEngine (DESIGN.md §5j) — the stand-in for the paper's YARN
// Hadoop testbed (DESIGN.md §2).
//
// EngineSimulation owns the physics the engine deliberately does not —
// per-task nominal runtimes, node speed factors, the noise/failure RNG —
// and turns them into the engine's event vocabulary: a submitted JobSpec
// becomes a JobSubmitted event at its arrival time; every container grant
// the engine makes (backups included) comes back via the EngineExecutor
// seam as a sampled TaskFinished or ContainerFreed event on the virtual
// clock.  Task runtimes are nominal * node speed * lognormal noise, drawn
// when the attempt starts (noise, then the failure coin, then the wasted
// fraction), so the scheduler only ever observes completed runtimes.
//
// A speculative backup's sibling is killed by the engine when the first
// attempt of the task finishes; the killed attempt's pending completion or
// failure is then dropped here, because its container may already run
// another attempt.

#pragma once

#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/engine/engine.h"
#include "src/sim/simulator.h"

namespace rush {

class EngineSimulation : private EngineExecutor {
 public:
  /// Throws InvalidInput on an empty node list, a node without containers
  /// or with a non-positive speed, a failure probability outside [0, 1),
  /// or speculation settings the engine rejects.
  EngineSimulation(ClusterConfig config, Scheduler& scheduler);

  /// Attaches a trace observer / record sink (not owned; may be null).
  /// Must be set before run().
  void set_observer(ClusterObserver* observer) { engine_.set_observer(observer); }
  void set_sink(EngineSink* sink) { engine_.set_sink(sink); }

  /// Registers a job for submission at spec.arrival.  Must be called
  /// before run().  Ids are dense in submission order, carried explicitly
  /// on the JobSubmitted events so arrival-order ties cannot renumber jobs.
  /// Throws InvalidInput on a job without tasks, a negative arrival, a task
  /// runtime that is not > 0, or a job configuration the engine would
  /// reject at arrival.
  JobId submit(JobSpec spec);

  /// Runs until every submitted job completes (or max_time).
  RunResult run();

  ContainerCount capacity() const { return engine_.capacity(); }
  SchedulerEngine& engine() { return engine_; }

 private:
  /// Submitted-but-not-yet-arrived physics of one job.
  struct SimJob {
    /// The submission event's payload, validated at submit().
    JobConfig config;
    /// Nominal runtimes split by kind, indexed by the engine's task_index.
    std::vector<Seconds> map_nominal;
    std::vector<Seconds> reduce_nominal;
  };

  void on_assignment(Seconds now, const EngineAssignment& assignment) override;

  static EngineConfig engine_config(const ClusterConfig& config);

  ClusterConfig config_;
  SchedulerEngine engine_;
  Simulator sim_;
  Rng rng_;
  /// Speed factor per container index, nodes in declaration order.
  std::vector<double> container_speed_;
  std::vector<SimJob> jobs_;
  bool ran_ = false;
};

}  // namespace rush
