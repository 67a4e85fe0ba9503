#include "src/baselines/fair_scheduler.h"

#include <algorithm>

namespace rush {

std::vector<JobId> FairScheduler::assign_containers(const ClusterView& view,
                                                    int count) {
  std::vector<JobId> grants;
  if (count <= 0) return grants;
  grants.reserve(static_cast<std::size_t>(count));
  const std::size_t n = view.jobs.size();
  std::vector<int> running(n);
  std::vector<int> dispatchable(n);
  std::vector<double> weight(n);
  for (std::size_t j = 0; j < n; ++j) {
    running[j] = view.jobs[j].running_tasks;
    dispatchable[j] = view.jobs[j].dispatchable_tasks;
    weight[j] = std::max(view.jobs[j].priority, 1e-9);
  }
  for (int c = 0; c < count; ++c) {
    std::size_t best = n;
    double best_ratio = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (dispatchable[j] <= 0) continue;
      const double ratio = static_cast<double>(running[j]) / weight[j];
      // Ties go to the lower id (slots ascend by id).
      if (best == n || ratio < best_ratio ||
          (ratio == best_ratio && view.jobs[j].id < view.jobs[best].id)) {
        best = j;
        best_ratio = ratio;
      }
    }
    if (best == n) break;
    ++running[best];
    --dispatchable[best];
    grants.push_back(view.jobs[best].id);
  }
  return grants;
}

}  // namespace rush
