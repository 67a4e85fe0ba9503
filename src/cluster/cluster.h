// Simulated-cluster configuration and run outcomes — the stand-in for the
// paper's YARN Hadoop testbed (DESIGN.md §2).
//
// Containers are homogeneous scheduling units spread over heterogeneous-
// speed nodes.  The simulator (src/engine/simulation.h) feeds job
// arrivals and sampled task completions/failures to the SchedulerEngine,
// which offers the free containers of every event wave to the installed
// Scheduler, like YARN's ResourceManager offering heartbeat allocations.
//
// Optional framework features (both uncertainty sources RUSH must absorb):
//  - task failure injection: attempts die mid-run and re-queue their task,
//  - speculative execution: Hadoop-style backup attempts for stragglers;
//    the first attempt to finish wins and the losers are killed instantly.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/job.h"
#include "src/cluster/node.h"
#include "src/cluster/scheduler.h"
#include "src/common/error.h"

namespace rush {

struct ClusterConfig {
  std::vector<Node> nodes;
  /// Sigma of the lognormal multiplicative runtime noise (0 = deterministic
  /// apart from node speed).
  double runtime_noise_sigma = 0.2;
  /// Probability that a task attempt fails mid-run and must be re-executed
  /// from scratch (the paper's future-work uncertainty source).  A failed
  /// attempt wastes a uniform 10-90% of its would-be runtime, releases its
  /// container, and the task is re-queued.
  double task_failure_probability = 0.0;
  /// Enables Hadoop-style speculative execution: containers left idle by
  /// the scheduler may run backup copies of straggling attempts.  The
  /// three speculation settings forward to EngineConfig.
  bool enable_speculation = false;
  /// An attempt counts as a straggler once its elapsed time exceeds this
  /// multiple of the job's mean completed-task runtime.
  double speculation_threshold = 1.5;
  /// Maximum simultaneous attempts per task (original + backups).
  int max_attempts_per_task = 2;
  /// RNG seed for runtime sampling.
  std::uint64_t seed = 1;
  /// Hard stop for the simulation clock (safety net).
  Seconds max_time = 1e9;
  /// Audits the incremental view against a from-scratch rebuild on every
  /// refresh (src/check/view_audit); forwards to EngineConfig::audit_view.
  /// Defaults to on in RUSH_DCHECK builds; tests force it on regardless of
  /// build type.
  bool audit_incremental_view = kDcheckEnabled;
};

/// Aggregate outcome of one run.
struct RunResult {
  std::vector<JobRecord> jobs;
  /// Completion time of the last job.
  Seconds makespan = 0.0;
  /// Number of scheduling events processed (arrival/finish/failure).
  long scheduling_events = 0;
  /// Number of container assignments made (including backup attempts).
  long assignments = 0;
  /// Failed task attempts across the run (re-executed).
  long task_failures = 0;
  /// Backup attempts launched / killed because a sibling won.
  long speculative_attempts = 0;
  long speculative_kills = 0;
  /// True when the run drained every submitted job before max_time.
  bool completed = true;

  /// Hardware-independent planner counters, copied from the scheduler's
  /// PlanStats by the experiment harness when the scheduler is RUSH (zero
  /// otherwise): peel probes and warm-started peel layers over every pass.
  long plan_peel_probes = 0;
  long plan_warm_layers = 0;

  /// Scheduler-seam accounting (DESIGN.md §5e): `dispatch_waves` counts
  /// dispatch rounds; `view_updates` counts incremental refresh passes over
  /// the dirty-job set (at most one per notification plus one per wave).
  long dispatch_waves = 0;
  long view_updates = 0;
};

/// Passive observer of cluster execution (tracing, statistics).  All hooks
/// default to no-ops; observers must not mutate the cluster.
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;
  virtual void on_job_arrival(Seconds /*now*/, JobId /*job*/,
                              const std::string& /*name*/) {}
  virtual void on_task_start(Seconds /*now*/, JobId /*job*/, int /*container*/,
                             bool /*is_reduce*/) {}
  virtual void on_task_finish(Seconds /*now*/, JobId /*job*/, int /*container*/,
                              Seconds /*runtime*/, bool /*is_reduce*/) {}
  virtual void on_task_failure(Seconds /*now*/, JobId /*job*/, int /*container*/,
                               Seconds /*wasted*/) {}
  /// A speculative attempt was killed because a sibling finished first.
  virtual void on_task_killed(Seconds /*now*/, JobId /*job*/, int /*container*/) {}
  virtual void on_job_finish(Seconds /*now*/, JobId /*job*/, Utility /*utility*/) {}
};

}  // namespace rush
