// Earliest-Deadline-First scheduler (paper §V-B comparison (ii)).
//
// Jobs are served in order of their time budget expiry
// (deadline = arrival + budget), as in a single-server preemptive queue —
// the setting in which EDF is deadline-optimal.  Like the paper's
// implementation it executes one job at a time by default; construct with
// exclusive = false for the work-conserving variant used in ablations.

#pragma once

#include "src/cluster/scheduler.h"

namespace rush {

class EdfScheduler final : public Scheduler {
 public:
  explicit EdfScheduler(bool exclusive = true) : exclusive_(exclusive) {}

  std::string name() const override { return exclusive_ ? "EDF" : "EDF-wc"; }
  /// Exclusive mode grants min(count, dispatchable) to the earliest-deadline
  /// incomplete job (ties to the lower id); work-conserving mode walks jobs
  /// in (deadline, id) order depleting each.
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override;

 private:
  bool exclusive_;
};

}  // namespace rush
