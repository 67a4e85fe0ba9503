// Risk-Reward Heuristic scheduler (paper §V-B comparison (iii), after
// Irwin, Grit & Chase, "Balancing risk and reward in a market-based task
// service", HPDC'04 — reference [20] of the paper).
//
// For each dispatchable job the heuristic scores the *future utility gain*
// of granting it one more container against the *opportunity cost* of that
// container being unavailable to the other jobs, and grants the container
// to the highest net score.  Completion estimates use learned mean task
// runtimes (same observable information as RUSH, no robustness).
//
// The paper observes that RRH "favours heavily the completion-time critical
// jobs": jobs with steep utility cliffs near their budget produce large
// gain scores, so they finish well before their deadlines at the expense of
// the merely time-sensitive ones — our implementation reproduces exactly
// that mechanism.

#pragma once

#include <unordered_map>

#include "src/cluster/scheduler.h"
#include "src/stats/summary.h"

namespace rush {

class RrhScheduler final : public Scheduler {
 public:
  std::string name() const override { return "RRH"; }
  /// Each handout goes to the highest reward + risk score, re-scored over
  /// wave-local allocation counts (the reward term depends on how many
  /// containers the job already won this wave); ties go to the earlier
  /// budget deadline.
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override;
  void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                        bool is_reduce) override;

 private:
  Seconds mean_runtime(const JobView& job) const;

  std::unordered_map<JobId, OnlineStats> per_job_runtimes_;
  OnlineStats global_runtimes_;
};

}  // namespace rush
