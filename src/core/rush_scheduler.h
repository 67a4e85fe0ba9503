// The RUSH scheduler — the paper's contribution, packaged as a drop-in
// Scheduler for the cluster (the way RUSH-YARN interfaces with the YARN
// ResourceManager, §IV).
//
// Feedback cycle per dispatch wave:
//   DE units ingest completed-task runtimes through on_task_finished
//   -> reference demand PMFs -> WCDE -> onion peeling -> slot mapping
//      (one RushPlanner pass)
//   -> each freed container goes to the job with the largest gap between
//      its desired allocation (head-of-queue census) and what it holds now.
//
// Every assign_containers call runs one planning pass; a job's demand PMF
// is rebuilt only when its sample count or remaining tasks moved.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/scheduler.h"
#include "src/core/rush_planner.h"
#include "src/estimator/distribution_estimator.h"
#include "src/estimator/phase_estimator.h"
#include "src/stats/summary.h"

namespace rush {

class RushScheduler final : public Scheduler {
 public:
  explicit RushScheduler(RushConfig config = {});

  std::string name() const override { return "RUSH"; }
  /// Runs one planning pass for the wave, then hands each container to the
  /// dispatchable job with the largest gap between its planned and held
  /// allocation, over wave-local counts (§IV, CA unit).
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override;
  void on_job_arrival(const ClusterView& view, JobId job) override;
  void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                        bool is_reduce) override;
  void on_job_finished(const ClusterView& view, JobId job) override;

  /// Snapshot seam (DESIGN.md §5j): serializes everything learned — global
  /// runtime moments, then each job's estimator and phase estimator in
  /// ascending id, then the planner's peel hint.  Demand snapshots and the
  /// plan are deliberately NOT saved: both are deterministic functions of
  /// the saved state and the next view, so the restored scheduler rebuilds
  /// them bit-identically on its first wave.  restore_state() requires the
  /// same estimator configuration it was saved under and throws
  /// InvalidInput on version/kind mismatch or a malformed blob.
  void save_state(std::string& blob) const override;
  void restore_state(const std::string& blob) override;

  /// The most recent plan (projected completion times, impossible flags) —
  /// what the RUSH web UI of Fig 2 renders.
  const Plan& current_plan() const { return plan_; }

  /// Per-stage profile of every planning pass this scheduler ran (pass
  /// count, WCDE / peel / mapping microseconds, probe counts, warm-start and
  /// WCDE memo counters) — the live form of the Fig 5 overhead measurement.
  PlanStats plan_stats() const { return planner_.plan_stats(); }

 private:
  /// Everything the scheduler keeps about one unfinished job.  The demand
  /// snapshot is shared with the planner and rebuilt only when its keys
  /// move: every estimator increments sample_count() on each observation
  /// and is otherwise deterministic, so (samples, remaining tasks per
  /// phase) pins the estimator output exactly.
  struct JobState {
    JobId id = kInvalidJob;
    std::unique_ptr<DistributionEstimator> estimator;
    /// Per-phase moments, kept beside the pooled estimator from the job's
    /// first sample on when config_.phase_aware_estimation is set.
    std::optional<PhaseAwareEstimator> phase;
    std::shared_ptr<const QuantizedPmf> demand;
    Seconds mean_runtime = 0.0;
    std::size_t samples = 0;
    int remaining_maps = -1;
    int remaining_reduces = -1;
  };

  /// The record of `job`, created with a fresh estimator when it has none.
  JobState& state_of(JobId job);
  /// Rebuilds the job's demand snapshot unless its keys are unchanged.
  void refresh_demand(JobState& state, const JobView& jv) const;
  /// Cluster-wide runtime statistics used to prime a job's prior before it
  /// has samples of its own.
  EstimatorPrior effective_prior() const;

  RushConfig config_;
  RushPlanner planner_;
  /// One record per unfinished job, ascending id.
  std::vector<JobState> jobs_;
  OnlineStats global_runtimes_;
  Plan plan_;
};

}  // namespace rush
