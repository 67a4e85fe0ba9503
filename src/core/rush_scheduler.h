// The RUSH scheduler — the paper's contribution, packaged as a drop-in
// Scheduler for the cluster (the way RUSH-YARN interfaces with the YARN
// ResourceManager, §IV).
//
// Feedback cycle per dispatch wave:
//   DE units ingest completed-task runtimes  ->  reference demand PMFs
//   -> WCDE -> onion peeling -> slot mapping  (one RushPlanner pass)
//   -> each freed container goes to the job with the largest gap between
//      its desired allocation (head-of-queue census) and what it holds now.
//
// The plan is cached within a timestamp, and a replan is elided when
// nothing it consumed changed (DESIGN.md §5h).

#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <unordered_set>

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
  /// Plans once for the wave (or reuses/elides the cached plan), then hands
  /// each container to the dispatchable job with the largest gap between
  /// its planned and held allocation, over wave-local counts (§IV, CA unit).
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override;
  void on_job_arrival(const ClusterView& view, JobId job) override;
  void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                        bool is_reduce) override;
  void on_task_failed(const ClusterView& view, JobId job, Seconds wasted) override;
  void on_job_finished(const ClusterView& view, JobId job) override;

  /// Snapshot seam (DESIGN.md §5j): serializes everything learned —
  /// global runtime moments, per-job estimators (sorted by id), phase
  /// estimators, the stale-snapshot set, and the planner's peel hint.
  /// Demand snapshots and the cached plan are deliberately NOT saved: both
  /// are deterministic functions of the saved state and the next view, so
  /// the restored scheduler rebuilds them bit-identically on its first
  /// wave (restore marks the plan dirty).  restore_state() requires the
  /// same estimator configuration it was saved under and throws
  /// InvalidInput on version/kind mismatch or a malformed blob.
  void save_state(std::string& blob) const override;
  void restore_state(const std::string& blob) override;

  /// The most recent plan (projected completion times, impossible flags) —
  /// what the RUSH web UI of Fig 2 renders.
  const Plan& current_plan() const { return plan_; }

  /// Total planning passes executed (overhead accounting, Fig 5).
  long plans_computed() const { return plans_computed_; }

  /// Waves served by the cached plan via replan elision (DESIGN.md §5h).
  /// plans_computed() + plans_elided() reconciles with the waves that needed
  /// a current plan.
  long plans_elided() const { return planner_.plan_stats().plans_elided; }

  /// Per-stage profile of every planning pass this scheduler ran (WCDE /
  /// peel / mapping microseconds, probe counts, warm-start and WCDE memo
  /// counters) — the live form of the Fig 5 overhead measurement.
  PlanStats plan_stats() const { return planner_.plan_stats(); }

 private:
  /// Cached planner inputs of one job.  Rebuilding a demand PMF costs
  /// O(PMF support) per job per pass; a container event leaves every other
  /// job's estimator state untouched, so the snapshot is reused until the
  /// keys below change.  Every estimator increments sample_count() on each
  /// observation and is otherwise deterministic, so (samples, remaining
  /// tasks per phase) pins the estimator output exactly.
  struct DemandSnapshot {
    std::shared_ptr<const QuantizedPmf> demand;
    Seconds mean_runtime = 0.0;
    std::size_t samples = 0;
    int remaining_maps = -1;
    int remaining_reduces = -1;
  };

  DistributionEstimator& estimator_for(JobId job);
  /// Guarantees plan_ is valid for this wave: serves the cached plan when
  /// nothing happened, elides the replan when the gate accepts (DESIGN.md
  /// §5h), and runs a full planning pass otherwise.
  void ensure_plan(const ClusterView& view);
  /// The elision gate: re-derives the robust demand of exactly the stale
  /// jobs and accepts when every planner input the cached plan consumed is
  /// unchanged within config_.replan_eta_tolerance (at tolerance 0: bit
  /// equal, at the cached plan's own timestamp).  On accept, marks the
  /// cached plan valid for this wave and returns true; RUSH_DCHECK builds
  /// (and audit_invariants) first prove the cached plan against a freshly
  /// computed one.
  bool try_elide(const ClusterView& view);
  void rebuild_plan(const ClusterView& view);
  /// Planner inputs for the view, one PlannerJob per job slot (ascending
  /// id), snapshots refreshed as needed — shared by rebuild_plan and the
  /// elision audit's reference plan.
  std::vector<PlannerJob> planner_jobs(const ClusterView& view);
  /// Returns the (possibly cached) planner snapshot for one job view.
  const DemandSnapshot& snapshot_for(const JobView& jv);
  /// Cluster-wide runtime statistics used to prime a job's prior before it
  /// has samples of its own.
  EstimatorPrior effective_prior() const;

  RushConfig config_;
  RushPlanner planner_;
  std::unordered_map<JobId, std::unique_ptr<DistributionEstimator>> estimators_;
  /// Per-phase moments, maintained alongside the pooled estimator when
  /// config_.phase_aware_estimation is set.
  std::unordered_map<JobId, PhaseAwareEstimator> phase_estimators_;
  std::unordered_map<JobId, DemandSnapshot> demand_snapshots_;
  /// Jobs whose cached DemandSnapshot no longer matches their estimator.
  /// Staleness arises only through on_task_finished (the one hook that adds
  /// a sample and shrinks the remaining-task counts; failures re-queue a
  /// pending task and change neither key), so membership here is exact —
  /// snapshot_for() skips even the estimator lookup for non-members, making
  /// a replan O(jobs with new samples) estimator work instead of O(jobs).
  std::unordered_set<JobId> stale_snapshots_;
  OnlineStats global_runtimes_;
  Plan plan_;
  bool plan_dirty_ = true;
  long plans_computed_ = 0;
  /// Timestamp of the last wave the cached plan was validated for (by a
  /// pass or by elision).  snapshot_for refreshes snapshots in place, so
  /// the gate cannot re-derive what the plan consumed from them; the two
  /// members below capture those inputs at rebuild time instead.
  Seconds plan_valid_at_ = -1.0;
  /// Mean task runtime each plan entry consumed, aligned with the sorted
  /// plan_.entries.
  std::vector<Seconds> planned_runtime_;
  ContainerCount planned_capacity_ = 0;
  /// Scratch: sorted copy of stale_snapshots_ for the gate's deterministic
  /// iteration.
  std::vector<JobId> stale_scratch_;
};

}  // namespace rush
