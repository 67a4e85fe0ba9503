// Weighted fair scheduler — the Hadoop Fair Scheduler's instantaneous
// policy: each job should hold containers proportional to its priority
// weight.  The paper excludes it from the time-aware comparison (it ignores
// completion-time utility) but it is the de-facto industry default, so we
// keep it for the ablation benches.

#pragma once

#include "src/cluster/scheduler.h"

namespace rush {

class FairScheduler final : public Scheduler {
 public:
  std::string name() const override { return "Fair"; }
  /// Max-min on the weight-normalised allocation: each handout goes to the
  /// dispatchable job with the smallest held/weight ratio over wave-local
  /// counts, ties to the lower id.
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override;
};

}  // namespace rush
